//! Scenario assembly: the three-forum world of the paper.
//!
//! A [`Scenario`] holds raw (pre-polishing) corpora for Reddit, The
//! Majestic Garden, and the Dream Market, with:
//!
//! * *resident* personas active on a single forum;
//! * *cross-forum* personas active on two forums (TMG↔DM for the
//!   pseudo-anonymity experiment of §V-B, Reddit↔dark for the
//!   de-anonymization experiment of §V-C), with style/temporal drift
//!   applied on the secondary forum;
//! * *thin* users with too little data to survive refinement (most of a
//!   real forum — Table IV keeps 422 of 4,709 TMG aliases);
//! * noise accounts (bots, spammers, non-English users) and message-level
//!   artifacts for the polishing pipeline.
//!
//! Everything is driven by a single seed; the same config + seed always
//! yields byte-identical corpora.

use crate::lexicon::{DRUGS_TOPIC, TOPICS};
use crate::noise::{bot_user, crosspost, foreign_user, pollute, spam_user, ForeignLang};
use crate::persona::{alias_name, leak_sentence, Persona};
use crate::style::{weighted_index, StyleGenome};
use crate::temporal::TemporalGenome;
use crate::textgen::{generate_long_message, generate_message};
use darklight_corpus::model::{Corpus, Post, User};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Which forum a corpus models; controls topic mixture and message length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForumKind {
    /// Multi-topic, shorter messages (Table I mixture).
    Reddit,
    /// Drug-centric, "longer than average and more digressive" (§III-B2).
    MajesticGarden,
    /// Drug-centric marketplace forum (§III-B1).
    DreamMarket,
}

impl ForumKind {
    /// Canonical corpus name.
    pub fn name(self) -> &'static str {
        match self {
            ForumKind::Reddit => "reddit",
            ForumKind::MajesticGarden => "tmg",
            ForumKind::DreamMarket => "dm",
        }
    }

    /// Minimum words per message (TMG messages run long).
    fn min_words(self) -> usize {
        match self {
            ForumKind::Reddit => 8,
            ForumKind::MajesticGarden => 30,
            ForumKind::DreamMarket => 15,
        }
    }

    /// Dark forums confine almost all discussion to drugs.
    fn is_dark(self) -> bool {
        !matches!(self, ForumKind::Reddit)
    }
}

/// Noise-account volumes (per forum, fractions of the rich-user count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Bot accounts per rich user.
    pub bot_frac: f64,
    /// Spam accounts per rich user.
    pub spam_frac: f64,
    /// Non-English accounts per rich user.
    pub foreign_frac: f64,
    /// Probability of each pollution artifact per message.
    pub artifact_rate: f64,
    /// Fraction of a user's posts duplicated as crossposts.
    pub crosspost_frac: f64,
}

impl Default for NoiseConfig {
    fn default() -> NoiseConfig {
        NoiseConfig {
            bot_frac: 0.03,
            spam_frac: 0.03,
            foreign_frac: 0.04,
            artifact_rate: 0.04,
            crosspost_frac: 0.05,
        }
    }
}

/// Full scenario configuration. `ScenarioConfig::small()` is the test
/// scale; `ScenarioConfig::default_scale()` is the experiment scale;
/// `ScenarioConfig::paper_scale()` approaches the paper's user counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Rich (refinement-surviving) Reddit residents.
    pub reddit_users: usize,
    /// Rich TMG residents.
    pub tmg_users: usize,
    /// Rich DM residents.
    pub dm_users: usize,
    /// Thin users per rich user (most real aliases are thin — Table IV).
    pub thin_frac: f64,
    /// Personas present on both TMG and DM (§V-B ground truth).
    pub cross_tmg_dm: usize,
    /// Personas present on Reddit and TMG (§V-C ground truth).
    pub cross_reddit_tmg: usize,
    /// Personas present on Reddit and DM (§V-C ground truth).
    pub cross_reddit_dm: usize,
    /// Style/temporal drift between the two dark forums (small).
    pub dark_drift: f64,
    /// Drift between Reddit and a dark forum (larger — "people might
    /// behave differently … in the standard Web").
    pub open_drift: f64,
    /// Style separability dial (1.0 = calibrated default).
    pub style_strength: f64,
    /// Fraction of a persona's fact sheet each alias may leak.
    pub leak_fraction: f64,
    /// Fraction of cross personas that self-reference their other alias
    /// (the vendor-as-brand behaviour of §V-C).
    pub alias_ref_rate: f64,
    /// Posts per rich user (min, max).
    pub posts_per_user: (usize, usize),
    /// Posts per thin user (min, max).
    pub thin_posts: (usize, usize),
    /// Noise volumes.
    pub noise: NoiseConfig,
    /// Style-evolution epochs across an author's posting history (the
    /// scenario-matrix `high-drift` dial): each author's timeline is cut
    /// into this many contiguous epochs and the style genome drifts by
    /// [`ScenarioConfig::epoch_drift`] at every boundary. `1` = a static
    /// style, byte-identical to the pre-matrix generator.
    pub style_epochs: usize,
    /// Drift applied between consecutive style epochs (`0.0` = none).
    pub epoch_drift: f64,
    /// Fraction of dark-forum *residents* that imitate a cross-forum
    /// persona's style (the `adversarial-imitation` dial): the imitator
    /// keeps its own persona id and temporal genome but writes in a
    /// lightly-drifted copy of a cross persona's style — a hard negative
    /// for text scoring. `0.0` = none.
    pub imitator_frac: f64,
    /// Per-post probability a rich author code-switches, appending a
    /// foreign phrase to an otherwise-English message (the
    /// `mixed-language` dial). `0.0` = none.
    pub code_switch_rate: f64,
    /// Fraction of dark aliases generated *sparse* (the `sparse-history`
    /// dial): few but long posts, keeping the alias above the 1,500-word
    /// refinement floor while staying below the 30-usable-timestamp
    /// activity floor. Applies to dark residents and to the secondary
    /// alias of cross personas; primaries stay rich. `0.0` = none.
    pub sparse_frac: f64,
}

/// Post-count range for sparse aliases: always below the 30-usable
/// activity floor (and the 60-timestamp alter-ego floor).
const SPARSE_POSTS: (usize, usize) = (16, 24);
/// Minimum words per sparse post: 16 × 130 keeps a sparse alias above the
/// 1,500-word refinement floor with margin for polishing losses.
const SPARSE_MIN_WORDS: usize = 130;
/// Style drift an imitator applies to the imitated persona's genome:
/// small, so the copy stays confusable with the original.
const IMITATION_DRIFT: f64 = 0.08;

impl ScenarioConfig {
    /// Tiny scale for unit/integration tests (seconds to generate).
    pub fn small() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            reddit_users: 60,
            tmg_users: 25,
            dm_users: 15,
            thin_frac: 1.0,
            cross_tmg_dm: 5,
            cross_reddit_tmg: 5,
            cross_reddit_dm: 4,
            dark_drift: 0.15,
            open_drift: 0.35,
            style_strength: 1.0,
            leak_fraction: 0.5,
            alias_ref_rate: 0.5,
            posts_per_user: (70, 130),
            thin_posts: (2, 20),
            noise: NoiseConfig::default(),
            style_epochs: 1,
            epoch_drift: 0.0,
            imitator_frac: 0.0,
            code_switch_rate: 0.0,
            sparse_frac: 0.0,
        }
    }

    /// Default experiment scale: large enough for meaningful
    /// precision/recall curves, small enough to run every experiment in
    /// minutes.
    pub fn default_scale() -> ScenarioConfig {
        ScenarioConfig {
            reddit_users: 1_200,
            tmg_users: 200,
            dm_users: 90,
            cross_tmg_dm: 12,
            cross_reddit_tmg: 25,
            cross_reddit_dm: 22,
            thin_frac: 1.5,
            ..ScenarioConfig::small()
        }
    }

    /// Near paper scale (11,679 Reddit / 422 TMG / 178 DM refined users).
    /// Slow; used via `DARKLIGHT_SCALE=paper`.
    pub fn paper_scale() -> ScenarioConfig {
        ScenarioConfig {
            reddit_users: 11_679,
            tmg_users: 422,
            dm_users: 178,
            cross_tmg_dm: 14,
            cross_reddit_tmg: 30,
            cross_reddit_dm: 28,
            thin_frac: 2.0,
            ..ScenarioConfig::small()
        }
    }
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig::default_scale()
    }
}

/// A generated three-forum world plus its ground truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The raw Reddit corpus.
    pub reddit: Corpus,
    /// The raw Majestic Garden corpus.
    pub tmg: Corpus,
    /// The raw Dream Market corpus.
    pub dm: Corpus,
    /// Every persona in the world (residents and cross-forum).
    pub personas: Vec<Persona>,
}

impl Scenario {
    /// The corpus for a forum kind.
    pub fn corpus(&self, kind: ForumKind) -> &Corpus {
        match kind {
            ForumKind::Reddit => &self.reddit,
            ForumKind::MajesticGarden => &self.tmg,
            ForumKind::DreamMarket => &self.dm,
        }
    }

    /// Ground-truth cross-forum pairs between two corpora: aliases sharing
    /// a persona id, as `(alias_in_a, alias_in_b)`.
    pub fn true_pairs(&self, a: &Corpus, b: &Corpus) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for ua in &a.users {
            let Some(pid) = ua.persona else { continue };
            for ub in &b.users {
                if ub.persona == Some(pid) {
                    out.push((ua.alias.clone(), ub.alias.clone()));
                }
            }
        }
        out
    }
}

/// Generates [`Scenario`]s from a [`ScenarioConfig`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config: ScenarioConfig,
}

impl ScenarioBuilder {
    /// Creates a builder.
    pub fn new(config: ScenarioConfig) -> ScenarioBuilder {
        ScenarioBuilder { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Generates the world.
    pub fn build(&self) -> Scenario {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut next_pid = 0u64;
        let mut personas: Vec<Persona> = Vec::new();
        let mut used_names: HashSet<String> = HashSet::new();

        let mut new_persona = |rng: &mut StdRng, personas: &mut Vec<Persona>| -> usize {
            let p = Persona::sample(rng, next_pid, cfg.style_strength);
            next_pid += 1;
            personas.push(p);
            personas.len() - 1
        };

        // Plan memberships: (persona index, [forums]).
        let mut memberships: Vec<(usize, Vec<ForumKind>)> = Vec::new();
        for _ in 0..cfg.cross_tmg_dm {
            let p = new_persona(&mut rng, &mut personas);
            memberships.push((p, vec![ForumKind::MajesticGarden, ForumKind::DreamMarket]));
        }
        for _ in 0..cfg.cross_reddit_tmg {
            let p = new_persona(&mut rng, &mut personas);
            memberships.push((p, vec![ForumKind::Reddit, ForumKind::MajesticGarden]));
        }
        for _ in 0..cfg.cross_reddit_dm {
            let p = new_persona(&mut rng, &mut personas);
            memberships.push((p, vec![ForumKind::Reddit, ForumKind::DreamMarket]));
        }
        let residents = [
            (
                ForumKind::Reddit,
                cfg.reddit_users
                    .saturating_sub(cfg.cross_reddit_tmg + cfg.cross_reddit_dm),
            ),
            (
                ForumKind::MajesticGarden,
                cfg.tmg_users
                    .saturating_sub(cfg.cross_tmg_dm + cfg.cross_reddit_tmg),
            ),
            (
                ForumKind::DreamMarket,
                cfg.dm_users
                    .saturating_sub(cfg.cross_tmg_dm + cfg.cross_reddit_dm),
            ),
        ];
        for (forum, count) in residents {
            for _ in 0..count {
                let p = new_persona(&mut rng, &mut personas);
                memberships.push((p, vec![forum]));
            }
        }

        let mut reddit = Corpus::new(ForumKind::Reddit.name());
        let mut tmg = Corpus::new(ForumKind::MajesticGarden.name());
        let mut dm = Corpus::new(ForumKind::DreamMarket.name());

        for (pidx, forums) in &memberships {
            let persona = personas[*pidx].clone();
            // Pre-generate alias names so self-references can point at the
            // *other* forum's alias.
            let aliases: Vec<String> = forums
                .iter()
                .map(|_| unique_alias(&mut rng, &mut used_names))
                .collect();
            let self_ref = forums.len() > 1 && rng.random::<f64>() < cfg.alias_ref_rate;
            for (fi, forum) in forums.iter().enumerate() {
                let primary = fi == 0;
                let drift = if primary {
                    0.0
                } else if forum.is_dark() && forums[0].is_dark() {
                    cfg.dark_drift
                } else {
                    cfg.open_drift
                };
                let mut style = persona.style.drifted(&mut rng, drift);
                // Adversarial imitation: dark residents may adopt a
                // lightly-drifted copy of a cross persona's style. The
                // cross TMG↔DM personas occupy indices 0..cross_tmg_dm,
                // so residents (single-forum, planned after them) can
                // never imitate themselves.
                if cfg.imitator_frac > 0.0
                    && cfg.cross_tmg_dm > 0
                    && forums.len() == 1
                    && forum.is_dark()
                    && rng.random::<f64>() < cfg.imitator_frac
                {
                    let target = rng.random_range(0..cfg.cross_tmg_dm);
                    style = personas[target].style.drifted(&mut rng, IMITATION_DRIFT);
                }
                let temporal = persona.temporal.drifted(&mut rng, drift * 0.6);
                // Sparse history: dark residents and secondary cross
                // aliases may drop below the activity floor (few, long
                // posts); primaries stay rich so the known side of a
                // ground-truth pair keeps its profile.
                let sparse = cfg.sparse_frac > 0.0
                    && forum.is_dark()
                    && (forums.len() == 1 || fi > 0)
                    && rng.random::<f64>() < cfg.sparse_frac;
                let posts_range = if sparse {
                    SPARSE_POSTS
                } else {
                    cfg.posts_per_user
                };
                let other_alias = if self_ref && forums.len() > 1 {
                    Some(aliases[1 - fi].as_str())
                } else {
                    None
                };
                let user = self.generate_user(
                    &mut rng,
                    &aliases[fi],
                    &persona,
                    &style,
                    &temporal,
                    *forum,
                    posts_range,
                    sparse,
                    other_alias,
                );
                match forum {
                    ForumKind::Reddit => reddit.users.push(user),
                    ForumKind::MajesticGarden => tmg.users.push(user),
                    ForumKind::DreamMarket => dm.users.push(user),
                }
            }
        }

        // Thin users + noise per forum.
        for (forum, corpus, rich) in [
            (ForumKind::Reddit, &mut reddit, cfg.reddit_users),
            (ForumKind::MajesticGarden, &mut tmg, cfg.tmg_users),
            (ForumKind::DreamMarket, &mut dm, cfg.dm_users),
        ] {
            let thin_count = (rich as f64 * cfg.thin_frac) as usize;
            for _ in 0..thin_count {
                let persona = Persona::sample(&mut rng, next_pid, cfg.style_strength);
                next_pid += 1;
                let alias = unique_alias(&mut rng, &mut used_names);
                let user = self.generate_user(
                    &mut rng,
                    &alias,
                    &persona,
                    &persona.style.clone(),
                    &persona.temporal.clone(),
                    forum,
                    cfg.thin_posts,
                    false,
                    None,
                );
                corpus.users.push(user);
            }
            let noise_temporal = TemporalGenome::sample(&mut rng);
            let n_bots = (rich as f64 * cfg.noise.bot_frac).ceil() as usize;
            let n_spam = (rich as f64 * cfg.noise.spam_frac).ceil() as usize;
            let n_foreign = (rich as f64 * cfg.noise.foreign_frac).ceil() as usize;
            for _ in 0..n_bots {
                let posts = rng.random_range(10..60);
                corpus
                    .users
                    .push(bot_user(&mut rng, &noise_temporal, posts));
            }
            for _ in 0..n_spam {
                let posts = rng.random_range(10..40);
                corpus
                    .users
                    .push(spam_user(&mut rng, &noise_temporal, posts));
            }
            for i in 0..n_foreign {
                let lang = [
                    ForeignLang::Spanish,
                    ForeignLang::German,
                    ForeignLang::French,
                ][i % 3];
                let posts = rng.random_range(10..50);
                corpus
                    .users
                    .push(foreign_user(&mut rng, &noise_temporal, lang, posts));
            }
        }

        Scenario {
            reddit,
            tmg,
            dm,
            personas,
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one user's generation knobs, passed straight through"
    )]
    fn generate_user(
        &self,
        rng: &mut StdRng,
        alias: &str,
        persona: &Persona,
        style: &StyleGenome,
        temporal: &TemporalGenome,
        forum: ForumKind,
        posts_range: (usize, usize),
        sparse: bool,
        other_alias: Option<&str>,
    ) -> User {
        let cfg = &self.config;
        let mut user = User::new(alias, Some(persona.id));
        let n_posts = rng.random_range(posts_range.0..=posts_range.1.max(posts_range.0 + 1));
        let timestamps = temporal.sample_timestamps(rng, n_posts);
        // Style evolution: the (sorted) timeline is cut into epochs and
        // the genome drifts at each boundary. The single-epoch path calls
        // no extra RNG, so pre-matrix configs stay byte-identical.
        let epoch_styles: Vec<StyleGenome> = if cfg.style_epochs > 1 && cfg.epoch_drift > 0.0 {
            let mut styles = Vec::with_capacity(cfg.style_epochs);
            styles.push(style.clone());
            for _ in 1..cfg.style_epochs {
                let evolved = styles
                    .last()
                    .expect("epoch style list is never empty")
                    .drifted(rng, cfg.epoch_drift);
                styles.push(evolved);
            }
            styles
        } else {
            vec![style.clone()]
        };
        // Which facts this alias will leak.
        let leaked = persona.facts_for_alias(rng, cfg.leak_fraction, other_alias);
        let n_stamps = timestamps.len();
        for (i, ts) in timestamps.into_iter().enumerate() {
            let style = &epoch_styles[(i * epoch_styles.len()) / n_stamps.max(1)];
            let topic = self.pick_topic(rng, style, forum);
            let (topic_idx, community) = topic;
            let mut text = if sparse {
                // Sparse aliases compensate with long posts: above the
                // word floor, below the activity floor.
                generate_long_message(rng, style, topic_idx, SPARSE_MIN_WORDS)
            } else if forum == ForumKind::MajesticGarden {
                generate_long_message(rng, style, topic_idx, forum.min_words())
            } else {
                let m = generate_message(rng, style, topic_idx);
                if darklight_text::token::word_count(&m) < forum.min_words()
                    && rng.random::<f64>() < 0.7
                {
                    generate_long_message(rng, style, topic_idx, forum.min_words())
                } else {
                    m
                }
            };
            text = pollute(rng, &text, cfg.noise.artifact_rate);
            if cfg.code_switch_rate > 0.0 && rng.random::<f64>() < cfg.code_switch_rate {
                let lang = [
                    ForeignLang::Spanish,
                    ForeignLang::German,
                    ForeignLang::French,
                ][rng.random_range(0..3)];
                let phrases = lang.phrases();
                text.push(' ');
                text.push_str(phrases[rng.random_range(0..phrases.len())]);
            }
            user.posts.push(Post::with_topic(text, ts, community));
        }
        // Guarantee each leaked fact appears in at least one post.
        if !user.posts.is_empty() {
            for fact in &leaked {
                let sentence = leak_sentence(rng, fact);
                let idx = rng.random_range(0..user.posts.len());
                user.posts[idx].text.push(' ');
                user.posts[idx].text.push_str(&sentence);
                // Strong facts sometimes repeat (vendors brand themselves).
                if fact.kind.is_strong() && rng.random::<f64>() < 0.5 {
                    let idx2 = rng.random_range(0..user.posts.len());
                    let s2 = leak_sentence(rng, fact);
                    user.posts[idx2].text.push(' ');
                    user.posts[idx2].text.push_str(&s2);
                }
            }
            user.facts = leaked;
        }
        crosspost(rng, &mut user, cfg.noise.crosspost_frac);
        user
    }

    /// Picks a topic and community for one post: on dark forums drugs
    /// dominate (90%); on Reddit the author's own topic mixture rules.
    fn pick_topic(
        &self,
        rng: &mut StdRng,
        style: &StyleGenome,
        forum: ForumKind,
    ) -> (usize, String) {
        let topic_idx = if forum.is_dark() && rng.random::<f64>() < 0.9 {
            DRUGS_TOPIC
        } else {
            weighted_index(rng, &style.topic_weights)
        };
        let communities: &[&str] = match forum {
            ForumKind::Reddit => TOPICS[topic_idx].communities,
            ForumKind::MajesticGarden => &[
                "vendor-threads",
                "trip-reports",
                "cultivation",
                "harm-reduction",
                "spirituality",
            ],
            ForumKind::DreamMarket => &[
                "product-reviews",
                "marketplace",
                "advertising",
                "scam-reports",
            ],
        };
        (
            topic_idx,
            communities[rng.random_range(0..communities.len())].to_string(),
        )
    }
}

fn unique_alias(rng: &mut StdRng, used: &mut HashSet<String>) -> String {
    loop {
        let name = alias_name(rng);
        if is_bot_safe(&name) && used.insert(name.clone()) {
            return name;
        }
    }
}

/// Persona aliases must not collide with the bot-name rule.
fn is_bot_safe(name: &str) -> bool {
    let lower = name.to_lowercase();
    !lower.starts_with("bot") && !lower.ends_with("bot")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        ScenarioBuilder::new(ScenarioConfig::small()).build()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.reddit, b.reddit);
        assert_eq!(a.tmg, b.tmg);
        assert_eq!(a.dm, b.dm);
    }

    #[test]
    fn forum_sizes_plausible() {
        let s = small();
        let cfg = ScenarioConfig::small();
        // rich + thin + noise.
        assert!(s.reddit.len() > cfg.reddit_users);
        assert!(s.tmg.len() > cfg.tmg_users);
        assert!(s.dm.len() > cfg.dm_users);
    }

    #[test]
    fn cross_pairs_exist() {
        let s = small();
        let cfg = ScenarioConfig::small();
        let tmg_dm = s.true_pairs(&s.tmg, &s.dm);
        assert_eq!(tmg_dm.len(), cfg.cross_tmg_dm);
        let reddit_tmg = s.true_pairs(&s.reddit, &s.tmg);
        assert_eq!(reddit_tmg.len(), cfg.cross_reddit_tmg);
        let reddit_dm = s.true_pairs(&s.reddit, &s.dm);
        assert_eq!(reddit_dm.len(), cfg.cross_reddit_dm);
    }

    #[test]
    fn aliases_unique_within_world() {
        let s = small();
        let mut seen = HashSet::new();
        for c in [&s.reddit, &s.tmg, &s.dm] {
            for u in &c.users {
                // Bot names may repeat in principle; persona aliases must not.
                if u.persona.is_some() {
                    assert!(seen.insert(u.alias.clone()), "dup alias {}", u.alias);
                }
            }
        }
    }

    #[test]
    fn rich_users_have_enough_data() {
        let s = small();
        // At least half the TMG persona users should pass refinement-level
        // thresholds before polishing (polishing trims a bit more).
        let rich = s
            .tmg
            .users
            .iter()
            .filter(|u| u.persona.is_some() && u.posts.len() >= 60)
            .filter(|u| u.total_words() > 3_000)
            .count();
        assert!(
            rich >= ScenarioConfig::small().tmg_users / 2,
            "rich = {rich}"
        );
    }

    #[test]
    fn noise_accounts_present() {
        let s = small();
        let bots = s
            .reddit
            .users
            .iter()
            .filter(|u| darklight_corpus::polish::Polisher::is_bot_name(&u.alias))
            .count();
        assert!(bots > 0);
        let noise = s
            .reddit
            .users
            .iter()
            .filter(|u| u.persona.is_none())
            .count();
        assert!(noise > bots);
    }

    #[test]
    fn leaked_facts_appear_in_text() {
        let s = small();
        for u in s.tmg.users.iter().filter(|u| !u.facts.is_empty()).take(10) {
            let text = u.full_text();
            for f in &u.facts {
                assert!(
                    text.contains(f.value.as_str()),
                    "alias {} fact {:?} not in text",
                    u.alias,
                    f.value
                );
            }
        }
    }

    #[test]
    fn some_cross_personas_self_reference() {
        let s = small();
        let refs = s
            .tmg
            .users
            .iter()
            .chain(&s.dm.users)
            .chain(&s.reddit.users)
            .filter(|u| {
                u.facts
                    .iter()
                    .any(|f| f.kind == darklight_corpus::model::FactKind::AliasRef)
            })
            .count();
        assert!(refs > 0);
    }

    #[test]
    fn dark_forums_are_drug_centric() {
        let s = small();
        let drug_posts =
            s.dm.users
                .iter()
                .flat_map(|u| &u.posts)
                .filter(|p| !p.topic.is_empty())
                .count();
        assert!(drug_posts > 0);
        // Reddit posts span multiple communities.
        let communities: HashSet<&str> = s
            .reddit
            .users
            .iter()
            .flat_map(|u| &u.posts)
            .map(|p| p.topic.as_str())
            .collect();
        assert!(
            communities.len() > 10,
            "only {} communities",
            communities.len()
        );
    }
}
