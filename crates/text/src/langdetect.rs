//! Character-n-gram language identification.
//!
//! The paper keeps only English messages, using the Python `langdetect`
//! library (a port of Google's language-detection). We stand in for it with
//! the classic Cavnar–Trenkle approach: build a ranked profile of the most
//! frequent character 1–3-grams for each language from embedded seed text,
//! and classify a message by the *out-of-place* distance between its profile
//! and each language profile. Eight languages are built in; the detector is
//! extensible with custom seed text.
//!
//! Accuracy is far below the 99% the Java library reaches on 55 languages,
//! but on the generator's vocabulary (drawn from the same language stock)
//! the decision "English / not English" — the only decision the pipeline
//! needs — is reliable for messages of ten or more words.

use std::collections::HashMap;
use std::fmt;

/// Languages with built-in profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(missing_docs, reason = "variant names are the language names")]
pub enum Lang {
    English,
    Spanish,
    French,
    German,
    Italian,
    Portuguese,
    Dutch,
    Russian,
}

impl Lang {
    /// All built-in languages.
    pub const ALL: [Lang; 8] = [
        Lang::English,
        Lang::Spanish,
        Lang::French,
        Lang::German,
        Lang::Italian,
        Lang::Portuguese,
        Lang::Dutch,
        Lang::Russian,
    ];

    /// ISO 639-1 code.
    pub fn code(self) -> &'static str {
        match self {
            Lang::English => "en",
            Lang::Spanish => "es",
            Lang::French => "fr",
            Lang::German => "de",
            Lang::Italian => "it",
            Lang::Portuguese => "pt",
            Lang::Dutch => "nl",
            Lang::Russian => "ru",
        }
    }

    fn seed(self) -> &'static str {
        match self {
            Lang::English => seeds::ENGLISH,
            Lang::Spanish => seeds::SPANISH,
            Lang::French => seeds::FRENCH,
            Lang::German => seeds::GERMAN,
            Lang::Italian => seeds::ITALIAN,
            Lang::Portuguese => seeds::PORTUGUESE,
            Lang::Dutch => seeds::DUTCH,
            Lang::Russian => seeds::RUSSIAN,
        }
    }
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Maximum number of ranked n-grams kept per profile (Cavnar–Trenkle used
/// 300; we keep more because profiles are cheap and accuracy improves).
const PROFILE_SIZE: usize = 400;

/// Out-of-place penalty for n-grams absent from the language profile.
const MISSING_PENALTY: usize = PROFILE_SIZE;

/// A ranked n-gram profile: n-gram → rank (0 = most frequent).
#[derive(Debug, Clone)]
struct Profile {
    ranks: HashMap<String, usize>,
}

impl Profile {
    fn from_text(text: &str) -> Profile {
        let counts = ngram_counts(text);
        let mut items: Vec<(String, u32)> = counts.into_iter().collect();
        // Sort by count desc, then lexicographically for determinism.
        items.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        items.truncate(PROFILE_SIZE);
        let ranks = items
            .into_iter()
            .enumerate()
            .map(|(rank, (gram, _))| (gram, rank))
            .collect();
        Profile { ranks }
    }

    /// Cavnar–Trenkle out-of-place distance, normalized per n-gram.
    fn distance(&self, other: &Profile) -> f64 {
        if other.ranks.is_empty() {
            return MISSING_PENALTY as f64;
        }
        let mut total = 0usize;
        for (gram, &rank) in &other.ranks {
            total += match self.ranks.get(gram) {
                Some(&r) => r.abs_diff(rank),
                None => MISSING_PENALTY,
            };
        }
        total as f64 / other.ranks.len() as f64
    }
}

/// Extracts 1–3-gram counts over the letters of `text`, with `_` marking
/// word boundaries (so `_th` and `he_` carry positional signal).
fn ngram_counts(text: &str) -> HashMap<String, u32> {
    let mut counts: HashMap<String, u32> = HashMap::new();
    for word in text.split(|c: char| !c.is_alphabetic()) {
        if word.is_empty() {
            continue;
        }
        let padded: Vec<char> = std::iter::once('_')
            .chain(word.chars().flat_map(|c| c.to_lowercase()))
            .chain(std::iter::once('_'))
            .collect();
        for n in 1..=3usize {
            if padded.len() < n {
                continue;
            }
            for window in padded.windows(n) {
                // Skip pure-boundary grams.
                if window.iter().all(|&c| c == '_') {
                    continue;
                }
                let gram: String = window.iter().collect();
                *counts.entry(gram).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// The result of a detection: the winning language and a confidence score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The most likely language.
    pub lang: Lang,
    /// Relative margin over the runner-up, in `[0, 1]`; near 0 means the
    /// top two languages were almost tied.
    pub confidence: f64,
}

/// A Cavnar–Trenkle language detector with built-in profiles.
///
/// ```
/// use darklight_text::langdetect::{Lang, LanguageDetector};
/// let det = LanguageDetector::new();
/// let d = det.detect("the quick brown fox jumps over the lazy dog and runs away")
///     .expect("enough text");
/// assert_eq!(d.lang, Lang::English);
/// assert!(det.is_english("I think this is definitely written in the english language"));
/// ```
#[derive(Debug, Clone)]
pub struct LanguageDetector {
    profiles: Vec<(Lang, Profile)>,
}

impl LanguageDetector {
    /// Builds the detector from the embedded seed corpora.
    pub fn new() -> LanguageDetector {
        let profiles = Lang::ALL
            .iter()
            .map(|&lang| (lang, Profile::from_text(lang.seed())))
            .collect();
        LanguageDetector { profiles }
    }

    /// Detects the language of `text`. Returns `None` when the text has no
    /// alphabetic content to classify.
    pub fn detect(&self, text: &str) -> Option<Detection> {
        let profile = Profile::from_text(text);
        if profile.ranks.is_empty() {
            return None;
        }
        let mut scored: Vec<(Lang, f64)> = self
            .profiles
            .iter()
            .map(|(lang, lp)| (*lang, lp.distance(&profile)))
            .collect();
        scored.sort_by(|a, b| darklight_order::cmp_f64_asc(a.1, b.1));
        let (best, best_d) = scored[0];
        let (_, second_d) = scored[1];
        let confidence = if second_d > 0.0 {
            ((second_d - best_d) / second_d).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Some(Detection {
            lang: best,
            confidence,
        })
    }

    /// `true` when `text` is detected as English. Empty/wordless text is
    /// *not* English.
    pub fn is_english(&self, text: &str) -> bool {
        matches!(
            self.detect(text),
            Some(Detection {
                lang: Lang::English,
                ..
            })
        )
    }
}

impl Default for LanguageDetector {
    fn default() -> LanguageDetector {
        LanguageDetector::new()
    }
}

/// Embedded seed corpora: a few hundred words of plain prose per language,
/// written for this crate (function-word-dense, which is what the n-gram
/// profiles key on).
mod seeds {
    pub const ENGLISH: &str = "the people who live in the city said that they would not be able to come to the meeting because the weather was very bad and the roads were closed for most of the day. it is not always easy to know what the right thing to do is, but when you have to make a choice you should think about what will happen after and how the others will feel about it. there are many things that we can learn from the past, and one of them is that nothing stays the same for a long time. the children were playing in the garden while their parents were talking about the news and drinking coffee in the kitchen. i think that this is one of the best books i have ever read, and i would like to tell everyone about it. we should try to understand each other better and work together to find a good solution for this problem. when the sun goes down the streets become quiet and the lights of the houses start to shine through the windows. she told me that she had never seen anything like that before in her whole life. the question is not whether we can do it, but whether we should do it at all. most of the time the answer depends on who you ask and what they want to hear from you.";

    pub const SPANISH: &str = "la gente que vive en la ciudad dijo que no podría venir a la reunión porque el tiempo estaba muy malo y las carreteras estuvieron cerradas durante la mayor parte del día. no siempre es fácil saber qué es lo correcto, pero cuando tienes que tomar una decisión debes pensar en lo que pasará después y en cómo se sentirán los demás. hay muchas cosas que podemos aprender del pasado, y una de ellas es que nada permanece igual durante mucho tiempo. los niños jugaban en el jardín mientras sus padres hablaban de las noticias y tomaban café en la cocina. creo que este es uno de los mejores libros que he leído y me gustaría contárselo a todo el mundo. deberíamos tratar de entendernos mejor y trabajar juntos para encontrar una buena solución a este problema. cuando el sol se pone las calles se quedan tranquilas y las luces de las casas empiezan a brillar a través de las ventanas. ella me dijo que nunca había visto nada parecido en toda su vida. la pregunta no es si podemos hacerlo, sino si debemos hacerlo. la mayoría de las veces la respuesta depende de a quién preguntes y de lo que quieran escuchar de ti.";

    pub const FRENCH: &str = "les gens qui habitent dans la ville ont dit qu'ils ne pourraient pas venir à la réunion parce que le temps était très mauvais et que les routes étaient fermées pendant la plus grande partie de la journée. il n'est pas toujours facile de savoir quelle est la bonne chose à faire, mais quand on doit faire un choix il faut penser à ce qui va se passer ensuite et à ce que les autres vont ressentir. il y a beaucoup de choses que nous pouvons apprendre du passé, et l'une d'elles est que rien ne reste pareil très longtemps. les enfants jouaient dans le jardin pendant que leurs parents parlaient des nouvelles et buvaient du café dans la cuisine. je pense que c'est l'un des meilleurs livres que j'ai jamais lus et je voudrais en parler à tout le monde. nous devrions essayer de mieux nous comprendre et de travailler ensemble pour trouver une bonne solution à ce problème. quand le soleil se couche les rues deviennent calmes et les lumières des maisons commencent à briller à travers les fenêtres. elle m'a dit qu'elle n'avait jamais rien vu de semblable de toute sa vie. la question n'est pas de savoir si nous pouvons le faire, mais si nous devons le faire.";

    pub const GERMAN: &str = "die leute, die in der stadt wohnen, sagten, dass sie nicht zu dem treffen kommen könnten, weil das wetter sehr schlecht war und die straßen den größten teil des tages gesperrt waren. es ist nicht immer leicht zu wissen, was das richtige ist, aber wenn man eine entscheidung treffen muss, sollte man darüber nachdenken, was danach passieren wird und wie sich die anderen dabei fühlen werden. es gibt viele dinge, die wir aus der vergangenheit lernen können, und eines davon ist, dass nichts lange gleich bleibt. die kinder spielten im garten, während ihre eltern über die nachrichten sprachen und in der küche kaffee tranken. ich glaube, dass dies eines der besten bücher ist, die ich je gelesen habe, und ich möchte allen davon erzählen. wir sollten versuchen, einander besser zu verstehen und zusammenzuarbeiten, um eine gute lösung für dieses problem zu finden. wenn die sonne untergeht, werden die straßen ruhig und die lichter der häuser beginnen durch die fenster zu scheinen. sie sagte mir, dass sie so etwas noch nie in ihrem ganzen leben gesehen habe. die frage ist nicht, ob wir es tun können, sondern ob wir es überhaupt tun sollten.";

    pub const ITALIAN: &str = "le persone che vivono in città hanno detto che non sarebbero potute venire alla riunione perché il tempo era molto brutto e le strade sono rimaste chiuse per la maggior parte della giornata. non è sempre facile sapere quale sia la cosa giusta da fare, ma quando devi fare una scelta dovresti pensare a cosa succederà dopo e a come si sentiranno gli altri. ci sono molte cose che possiamo imparare dal passato, e una di queste è che niente rimane uguale a lungo. i bambini giocavano in giardino mentre i loro genitori parlavano delle notizie e bevevano il caffè in cucina. penso che questo sia uno dei migliori libri che abbia mai letto e vorrei parlarne a tutti. dovremmo cercare di capirci meglio e lavorare insieme per trovare una buona soluzione a questo problema. quando il sole tramonta le strade diventano tranquille e le luci delle case cominciano a brillare attraverso le finestre. lei mi ha detto che non aveva mai visto niente di simile in tutta la sua vita. la domanda non è se possiamo farlo, ma se dobbiamo farlo davvero.";

    pub const PORTUGUESE: &str = "as pessoas que moram na cidade disseram que não poderiam vir à reunião porque o tempo estava muito ruim e as estradas ficaram fechadas durante a maior parte do dia. nem sempre é fácil saber qual é a coisa certa a fazer, mas quando você tem que fazer uma escolha deve pensar no que vai acontecer depois e em como os outros vão se sentir. há muitas coisas que podemos aprender com o passado, e uma delas é que nada fica igual por muito tempo. as crianças brincavam no jardim enquanto os pais conversavam sobre as notícias e tomavam café na cozinha. acho que este é um dos melhores livros que já li e gostaria de contar a todos sobre ele. deveríamos tentar nos entender melhor e trabalhar juntos para encontrar uma boa solução para este problema. quando o sol se põe as ruas ficam tranquilas e as luzes das casas começam a brilhar através das janelas. ela me disse que nunca tinha visto nada parecido em toda a sua vida. a questão não é se podemos fazer, mas se devemos fazer isso afinal.";

    pub const DUTCH: &str = "de mensen die in de stad wonen zeiden dat ze niet naar de vergadering konden komen omdat het weer erg slecht was en de wegen het grootste deel van de dag gesloten waren. het is niet altijd gemakkelijk om te weten wat het juiste is om te doen, maar als je een keuze moet maken moet je nadenken over wat er daarna zal gebeuren en hoe de anderen zich daarbij zullen voelen. er zijn veel dingen die we van het verleden kunnen leren, en een daarvan is dat niets lang hetzelfde blijft. de kinderen speelden in de tuin terwijl hun ouders over het nieuws praatten en koffie dronken in de keuken. ik denk dat dit een van de beste boeken is die ik ooit heb gelezen en ik zou het iedereen willen vertellen. we zouden moeten proberen elkaar beter te begrijpen en samen te werken om een goede oplossing voor dit probleem te vinden. als de zon ondergaat worden de straten rustig en beginnen de lichten van de huizen door de ramen te schijnen. ze vertelde me dat ze nog nooit zoiets had gezien in haar hele leven. de vraag is niet of we het kunnen doen, maar of we het wel zouden moeten doen.";

    pub const RUSSIAN: &str = "люди, которые живут в городе, сказали, что не смогут прийти на встречу, потому что погода была очень плохая и дороги были закрыты большую часть дня. не всегда легко знать, что правильно делать, но когда нужно сделать выбор, следует подумать о том, что будет потом и как это почувствуют другие. есть много вещей, которым мы можем научиться у прошлого, и одна из них состоит в том, что ничто не остаётся прежним надолго. дети играли в саду, пока их родители говорили о новостях и пили кофе на кухне. я думаю, что это одна из лучших книг, которые я когда-либо читал, и я хотел бы рассказать о ней всем. мы должны постараться лучше понимать друг друга и работать вместе, чтобы найти хорошее решение этой проблемы. когда солнце садится, улицы становятся тихими, и огни домов начинают светить через окна. она сказала мне, что никогда в жизни не видела ничего подобного. вопрос не в том, можем ли мы это сделать, а в том, должны ли мы это делать вообще.";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> LanguageDetector {
        LanguageDetector::new()
    }

    #[test]
    fn detects_each_seed_language() {
        let d = det();
        for lang in Lang::ALL {
            let detection = d.detect(lang.seed()).unwrap();
            assert_eq!(detection.lang, lang, "seed for {lang} misdetected");
        }
    }

    #[test]
    fn detects_fresh_english() {
        let d = det();
        let samples = [
            "I really enjoyed the package, shipping was fast and the quality is great, will order again from this vendor soon",
            "does anyone know whether the market is down again today or is it just my connection acting up once more",
            "we went to the mountains last weekend and the views were absolutely beautiful even though it rained",
        ];
        for s in samples {
            assert!(d.is_english(s), "misdetected: {s}");
        }
    }

    #[test]
    fn rejects_fresh_non_english() {
        let d = det();
        let samples = [
            "me gustaría saber si alguien puede ayudarme con este problema porque no encuentro ninguna solución",
            "ich habe gestern ein neues buch gekauft und möchte es am wochenende in ruhe lesen",
            "je ne sais pas encore si je vais venir demain parce que j'ai beaucoup de travail cette semaine",
            "я вчера купил новую книгу и хочу спокойно почитать её на выходных дома",
        ];
        for s in samples {
            assert!(!d.is_english(s), "misdetected as english: {s}");
        }
    }

    #[test]
    fn empty_and_symbol_text_undetected() {
        let d = det();
        assert!(d.detect("").is_none());
        assert!(d.detect("12345 !!! ???").is_none());
        assert!(!d.is_english("###"));
    }

    #[test]
    fn confidence_reported() {
        let d = det();
        let long_en = Lang::English.seed();
        let det_long = d.detect(long_en).unwrap();
        assert!(
            det_long.confidence > 0.1,
            "confidence {}",
            det_long.confidence
        );
    }

    #[test]
    fn cyrillic_never_english() {
        let d = det();
        assert_eq!(
            d.detect("привет как дела сегодня").unwrap().lang,
            Lang::Russian
        );
    }

    #[test]
    fn profile_deterministic() {
        let a = Profile::from_text("some repeated text some repeated text");
        let b = Profile::from_text("some repeated text some repeated text");
        assert_eq!(a.ranks, b.ranks);
    }

    #[test]
    fn short_english_with_common_words() {
        let d = det();
        // Ten-word messages are the paper's minimum; they should mostly work.
        assert!(d.is_english("this is what happens when you leave the door open"));
    }
}
