//! Byte-parity contract of the durable fit artifact (DESIGN.md §14):
//! serving a persisted `FitArtifact` through `link_with_artifact` must
//! reproduce the fit-every-time `Linker::try_link` output bit-for-bit, at
//! every thread count, whether the artifact came straight from `fit` or
//! round-tripped through the on-disk epoch store. Fitting itself must be
//! thread-invariant, so the *serialized* artifact is byte-identical no
//! matter how many workers fitted it.

use std::path::PathBuf;

use darklight::core::artifact::FitArtifact;
use darklight::core::linker::{Linker, LinkerConfig};
use darklight::corpus::model::{Corpus, Fact, FactKind, Post, User};
use darklight::store::EpochStore;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Eight distinctive-vocabulary users per forum; user N of each corpus
/// is the same persona. Eight users leave a ragged split at 7 threads.
fn corpus(name: &str, salt: usize) -> Corpus {
    let mut c = Corpus::new(name);
    let base = 1_486_375_200i64;
    let vocabs: [[&str; 4]; 8] = [
        ["harpsichord", "madrigal", "counterpoint", "basso"],
        ["terrarium", "isopods", "springtails", "bioactive"],
        ["leatherwork", "awl", "burnishing", "saddle"],
        ["homebrew", "fermenter", "sparge", "lauter"],
        ["mycology", "substrate", "inoculation", "flush"],
        ["letterpress", "platen", "typeface", "quoin"],
        ["falconry", "jesses", "mews", "tiercel"],
        ["orrery", "gnomon", "astrolabe", "ecliptic"],
    ];
    for pid in 0..8u64 {
        let mut u = User::new(format!("{name}_user{pid}"), Some(pid));
        u.facts
            .push(Fact::new(FactKind::City, format!("city{pid}")));
        let vocab = vocabs[pid as usize];
        for i in 0..70i64 {
            let ts =
                base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400 + (pid as i64) * 7_200 + salt as i64;
            let w1 = vocab[i as usize % 4];
            let w2 = vocab[(i as usize + 1) % 4];
            let ma = char::from(b'a' + (i % 26) as u8);
            let mb = char::from(b'a' + ((i / 26) % 26) as u8);
            u.posts.push(Post::new(
                format!(
                    "today the {w1} project moved forward again and i compared several {w2} \
                     methods with friends near batch {ma}{mb} before writing longer notes \
                     about {w1} techniques and the tools involved"
                ),
                ts,
            ));
        }
        c.users.push(u);
    }
    c
}

fn config(threads: usize) -> LinkerConfig {
    let mut cfg = LinkerConfig::default();
    cfg.two_stage.k = 3;
    cfg.two_stage.threshold = 0.3;
    cfg.two_stage.threads = threads;
    cfg
}

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "darklight_artifact_parity_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn fitting_is_thread_invariant_down_to_the_serialized_bytes() {
    let known = corpus("forum_a", 0);
    let baseline = Linker::new(config(1))
        .fit_artifact(&known)
        .to_container()
        .to_bytes();
    for threads in [2usize, 7] {
        let bytes = Linker::new(config(threads))
            .fit_artifact(&known)
            .to_container()
            .to_bytes();
        assert_eq!(
            bytes, baseline,
            "serialized artifact diverged at {threads} fit threads"
        );
    }
}

#[test]
fn served_artifact_matches_fresh_link_at_every_thread_count() {
    let known = corpus("forum_a", 0);
    let unknown = corpus("forum_b", 1800);
    let dir = store_dir("serve");
    // Fit and persist once, single-threaded.
    let fit_linker = Linker::new(config(1));
    let baseline = fit_linker.try_link(&known, &unknown).unwrap();
    assert!(!baseline.is_empty(), "scenario must produce links");
    let store = EpochStore::new(dir.clone());
    fit_linker.fit_artifact(&known).save(&store).unwrap();
    // Serve from disk at every thread count; scores must match to the
    // last bit (PartialEq on f64 here is exact equality).
    for threads in THREAD_COUNTS {
        let (artifact, epoch) = FitArtifact::load(&store, threads).unwrap();
        assert_eq!(epoch, 1);
        let served = Linker::new(config(threads)).link_with_artifact(&artifact, &unknown);
        assert_eq!(served.len(), baseline.len(), "at {threads} threads");
        for (fresh, from_disk) in baseline.iter().zip(&served) {
            assert_eq!(fresh.known_alias, from_disk.known_alias);
            assert_eq!(fresh.unknown_alias, from_disk.unknown_alias);
            assert_eq!(
                fresh.score.to_bits(),
                from_disk.score.to_bits(),
                "score diverged at {threads} threads for {}",
                fresh.unknown_alias
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn on_disk_round_trip_reproduces_the_exact_container_bytes() {
    let known = corpus("forum_a", 0);
    let dir = store_dir("roundtrip");
    let artifact = Linker::new(config(2)).fit_artifact(&known);
    let original = artifact.to_container().to_bytes();
    let store = EpochStore::new(dir.clone());
    artifact.save(&store).unwrap();
    // Decode at a different thread count than the fit used: the
    // reconstruction (lemmatize, count, vectorize) is itself pinned to
    // be thread-invariant, so re-serializing gives the same bytes.
    let (reloaded, _) = FitArtifact::load(&store, 7).unwrap();
    assert_eq!(reloaded.to_container().to_bytes(), original);
    std::fs::remove_dir_all(&dir).ok();
}
