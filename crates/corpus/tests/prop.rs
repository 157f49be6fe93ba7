//! Property-based tests for the corpus layer.

use darklight_activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight_corpus::io::{read_corpus, read_corpus_lenient, write_corpus, LenientConfig};
use darklight_corpus::model::{Corpus, Fact, FactKind, Post, User};
use darklight_corpus::polish::{PolishConfig, Polisher};
use darklight_corpus::refine::{split_user, AlterEgoConfig};
use darklight_corpus::stats::{cdf_at, cdf_of_sorted};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn fact_kind_strategy() -> impl Strategy<Value = FactKind> {
    prop_oneof![
        Just(FactKind::Age),
        Just(FactKind::City),
        Just(FactKind::Drug),
        Just(FactKind::AliasRef),
        Just(FactKind::Hobby),
    ]
}

fn user_strategy() -> impl Strategy<Value = User> {
    (
        "[a-zA-Z_]{1,12}",
        proptest::option::of(0u64..100),
        proptest::collection::vec(("\\PC{0,60}", 0i64..2_000_000_000, "[a-z]{0,8}"), 0..10),
        proptest::collection::vec((fact_kind_strategy(), "[a-z0-9 ]{1,12}"), 0..4),
    )
        .prop_map(|(alias, persona, posts, facts)| {
            let mut u = User::new(alias, persona);
            for (text, ts, topic) in posts {
                u.posts.push(Post::with_topic(text, ts, topic));
            }
            for (kind, value) in facts {
                u.facts.push(Fact::new(kind, value));
            }
            u
        })
}

fn corpus_strategy() -> impl Strategy<Value = Corpus> {
    (
        "[a-z]{1,8}",
        proptest::collection::vec(user_strategy(), 0..8),
    )
        .prop_map(|(name, users)| {
            let mut c = Corpus::new(name);
            c.users = users;
            c
        })
}

proptest! {
    /// TSV serialization round-trips arbitrary corpora (including control
    /// characters in post text).
    #[test]
    fn tsv_round_trip(c in corpus_strategy()) {
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        let back = read_corpus(buf.as_slice()).unwrap();
        prop_assert_eq!(back, c);
    }

    /// Polishing never invents posts or users, and the report's kept count
    /// matches the surviving corpus.
    #[test]
    fn polish_shrinks(c in corpus_strategy()) {
        let (out, report) = Polisher::default().polish(&c);
        prop_assert!(out.len() <= c.len());
        prop_assert!(out.total_posts() <= c.total_posts());
        prop_assert_eq!(report.kept_messages, out.total_posts());
    }

    /// With everything disabled, polishing is the identity.
    #[test]
    fn polish_disabled_identity(c in corpus_strategy()) {
        let (out, _) = Polisher::new(PolishConfig::disabled()).polish(&c);
        prop_assert_eq!(out, c);
    }

    /// The alter-ego split exactly partitions the user's posts: counts add
    /// up, each half is near-even, and the multisets of timestamps merge
    /// back to the original.
    #[test]
    fn split_partitions(seed in any::<u64>(), n_posts in 61usize..200) {
        let mut u = User::new("target", Some(1));
        let base = 1_486_375_200i64; // Monday 2017-02-06 10:00 UTC
        for i in 0..n_posts {
            let ts = base + (i as i64 / 5) * 7 * 86_400 + (i as i64 % 5) * 86_400;
            u.posts.push(Post::new(format!("post number {i} with some sixty words of filler {}", "pad ".repeat(60)), ts));
        }
        let cfg = AlterEgoConfig { seed, ..AlterEgoConfig::default() };
        let profiles = ProfileBuilder::new(ProfilePolicy::default());
        if let Some(split) = split_user(&u, &cfg, &profiles) {
            prop_assert_eq!(split.original.posts.len() + split.alter_ego.posts.len(), n_posts);
            let diff = split.original.posts.len() as i64 - split.alter_ego.posts.len() as i64;
            prop_assert!(diff.abs() <= 1);
            let mut merged: Vec<i64> = split
                .original
                .posts
                .iter()
                .chain(&split.alter_ego.posts)
                .map(|p| p.timestamp)
                .collect();
            merged.sort_unstable();
            let mut orig: Vec<i64> = u.posts.iter().map(|p| p.timestamp).collect();
            orig.sort_unstable();
            prop_assert_eq!(merged, orig);
        }
    }

    /// CDFs are monotone in both value and fraction and end at 1.
    #[test]
    fn cdf_monotone(mut sample in proptest::collection::vec(0u64..10_000, 1..100)) {
        sample.sort_unstable();
        let cdf = cdf_of_sorted(&sample);
        prop_assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            prop_assert!(w[0].value < w[1].value);
            prop_assert!(w[0].fraction <= w[1].fraction);
        }
        prop_assert!((cdf.last().unwrap().fraction - 1.0).abs() < 1e-12);
        // Evaluation brackets.
        prop_assert_eq!(cdf_at(&cdf, 0u64.wrapping_sub(0)), cdf_at(&cdf, 0));
        prop_assert!((cdf_at(&cdf, 10_000) - 1.0).abs() < 1e-12);
    }
}

/// Fragments that are each meaningful to the TSV readers — headers,
/// record tags, field separators, integers that do and do not fit,
/// escapes, a byte-order mark and bytes that are not UTF-8 — so random
/// sequences reach every branch instead of failing on line 1.
const TOKENS: &[&[u8]] = &[
    b"#darklight-corpus v1 ",
    b"#darklight-corpus v2 ",
    b"\xef\xbb\xbf",
    b"U",
    b"F",
    b"P",
    b"Z",
    b"\t",
    b"\n",
    b"\r\n",
    b"\r",
    b"-",
    b"42",
    b"-7",
    b"18446744073709551616",
    b"city",
    b"alias_ref",
    b"not_a_kind",
    b"\\",
    b"\\t",
    b"alice",
    b"\xff",
    b"\xc3",
    b"\xc3\xa9",
    b"\0",
];

fn token_soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..120).prop_map(|picks| {
        picks
            .into_iter()
            .flat_map(|i| TOKENS[i].iter().copied())
            .collect()
    })
}

/// Runs both readers on `input`, failing the case (rather than the
/// process) if either panics. Any `Ok` or typed `ReadError` passes; a
/// corpus the strict reader accepts must also load leniently, unchanged
/// and with nothing quarantined.
fn ingest_never_panics(input: &[u8]) -> Result<(), String> {
    let strict = catch_unwind(|| read_corpus(input))
        .map_err(|_| format!("read_corpus panicked on {input:?}"))?;
    let lenient = catch_unwind(AssertUnwindSafe(|| {
        read_corpus_lenient(input, &LenientConfig::default())
    }))
    .map_err(|_| format!("read_corpus_lenient panicked on {input:?}"))?;
    if let Ok(corpus) = strict {
        match lenient {
            Ok((lax, report)) if lax == corpus && report.is_clean() => {}
            other => return Err(format!("strict accepted {input:?}, lenient gave {other:?}")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_readers(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        ingest_never_panics(&bytes)?;
    }

    #[test]
    fn token_soup_never_panics_the_readers(input in token_soup()) {
        ingest_never_panics(&input)?;
    }
}
