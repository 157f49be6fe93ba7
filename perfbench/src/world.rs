//! Seeded input generation and the on-disk input cache.
//!
//! Inputs are generated in their own process (`perfbench inputs`), so the
//! generator's memory never shows in a measured run's peak RSS, and they
//! are cached under a digest of (generator version, program digest,
//! workload, seed, config). Before a cached world is used, both the digest and a checksum
//! of every file are verified; a mismatch regenerates it, so a stale or
//! damaged cache is never measured.

use darklight::activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight::core::checkpoint::Fnv1a;
use darklight::corpus::io::save_corpus;
use darklight::corpus::polish::{PolishConfig, Polisher};
use darklight::corpus::refine::refine;
use darklight::synth::matrix::{CellSpec, MatrixScale, ScenarioKind};
use darklight::synth::scenario::{ScenarioBuilder, ScenarioConfig};
use std::fs;
use std::path::{Path, PathBuf};

/// Bump when generation changes in a way the config digest cannot see.
const GENERATOR_VERSION: u64 = 1;

/// Files of one generated world, relative to its cache directory.
pub const KNOWN_FILE: &str = "known.tsv";
pub const UNKNOWN_FILE: &str = "unknown.tsv";
pub const TRUTH_FILE: &str = "truth.tsv";
const MANIFEST_FILE: &str = "manifest.txt";

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fit once, then serve one unknown alias per query.
    ServeSingle,
    /// One fit-every-time TMG↔DM `try_link` on raw corpora.
    LinkCross,
    /// The RAM-bounded batched link on a pre-polished `mixed` world.
    BatchedGoverned,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeSingle,
        Workload::LinkCross,
        Workload::BatchedGoverned,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSingle => "serve-single",
            Workload::LinkCross => "link-cross",
            Workload::BatchedGoverned => "batched-governed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `serve-single` and `link-cross` share one world so their answers
    /// can be compared byte for byte.
    fn world(self) -> WorldKind {
        match self {
            Workload::ServeSingle | Workload::LinkCross => WorldKind::Cross,
            Workload::BatchedGoverned => WorldKind::Mixed,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorldKind {
    /// A raw clean dark-forum world: TMG is the known side, DM the unknown.
    Cross,
    /// The `mixed` matrix scenario, polished and refined at generation.
    Mixed,
}

/// The raw world behind `serve-single` and `link-cross`: 40 TMG and 200
/// DM residents with 20 personas on both forums, which the generator
/// turns into about 46 TMG and 220 DM aliases, so a run's first 200
/// queries are all different DM aliases and ten of them lie beyond the
/// 95th latency percentile. Histories are 40–80 posts, shorter than the
/// generator's default, so one fit-every-time link over the 220 DM
/// aliases stays within seconds on two cores. There
/// are no thin users, so every query is a full alias history and the
/// latency distribution is one population rather than two whose boundary
/// the median could straddle.
fn cross_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        reddit_users: 0,
        cross_reddit_tmg: 0,
        cross_reddit_dm: 0,
        tmg_users: 40,
        dm_users: 200,
        cross_tmg_dm: 20,
        thin_frac: 0.0,
        posts_per_user: (40, 80),
        ..ScenarioConfig::small()
    }
}

/// The `mixed` matrix cell shape, between the matrix's `t` scale (16
/// known aliases, too few to batch meaningfully) and `s` (over a minute
/// per run on two cores): the scenario dials of `mixed` on about 120
/// known aliases, so a half-pool budget splits the pool into batches.
fn mixed_spec(seed: u64) -> (CellSpec, ScenarioConfig) {
    let spec = CellSpec {
        kind: ScenarioKind::Mixed,
        scale: MatrixScale::Small,
        seed,
    };
    let config = ScenarioConfig {
        tmg_users: 120,
        dm_users: 30,
        cross_tmg_dm: 15,
        thin_frac: 0.3,
        ..spec.config()
    };
    (spec, config)
}

/// Unknown (DM) aliases kept in the mixed world, mirroring the matrix's
/// cap on the unknown pool. Above the persona count, so every positive
/// stays in; the final rescore refits per unknown, so this sets the cost
/// of a call.
pub const MIXED_MAX_UNKNOWNS: usize = 20;

fn config_digest(workload: Workload, seed: u64, program: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(GENERATOR_VERSION);
    h.write_str(program);
    h.write_u64(seed);
    match workload.world() {
        WorldKind::Cross => {
            h.write_str("cross");
            h.write_str(&format!("{:?}", cross_config(seed)));
        }
        WorldKind::Mixed => {
            let (spec, config) = mixed_spec(seed);
            h.write_str("mixed");
            h.write_str(&format!("{config:?}"));
            h.write_str(&format!("{:?}", spec.refine_config()));
            h.write_u64(MIXED_MAX_UNKNOWNS as u64);
        }
    }
    h.finish()
}

fn file_checksum(path: &Path) -> Result<u64, String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut h = Fnv1a::new();
    h.write(&bytes);
    Ok(h.finish())
}

const WORLD_FILES: [&str; 3] = [KNOWN_FILE, UNKNOWN_FILE, TRUTH_FILE];

fn manifest_text(digest: u64, dir: &Path) -> Result<String, String> {
    let mut text = format!("digest {digest:016x}\n");
    for name in WORLD_FILES {
        text.push_str(&format!(
            "{name} {:016x}\n",
            file_checksum(&dir.join(name))?
        ));
    }
    Ok(text)
}

/// Whether `dir` holds a complete world for `digest` whose files still
/// match the checksums recorded when it was generated.
fn cache_is_valid(dir: &Path, digest: u64) -> bool {
    let Ok(recorded) = fs::read_to_string(dir.join(MANIFEST_FILE)) else {
        return false;
    };
    matches!(manifest_text(digest, dir), Ok(actual) if actual == recorded)
}

/// Returns the directory holding `workload`'s inputs for `seed`,
/// generating (or regenerating) them when the cache is missing or stale.
/// `program` identifies the code that generates them (a digest of its
/// sources, or empty).
pub fn ensure_inputs(
    cache: &Path,
    workload: Workload,
    seed: u64,
    program: &str,
) -> Result<PathBuf, String> {
    let digest = config_digest(workload, seed, program);
    let world = match workload.world() {
        WorldKind::Cross => "cross",
        WorldKind::Mixed => "mixed",
    };
    let dir = cache.join(format!("{world}-{seed}-{digest:016x}"));
    if cache_is_valid(&dir, digest) {
        return Ok(dir);
    }
    let tmp = cache.join(format!("{world}-{seed}-{digest:016x}.tmp"));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let (known, unknown, truth) = match workload.world() {
        WorldKind::Cross => {
            let scenario = ScenarioBuilder::new(cross_config(seed)).build();
            let truth = scenario.true_pairs(&scenario.tmg, &scenario.dm);
            (scenario.tmg, scenario.dm, truth)
        }
        WorldKind::Mixed => {
            // The steps of `darklight_bench::matrix::prepare_cell` (which
            // is fixed to the matrix scales) on the benchmark's shape.
            let (spec, config) = mixed_spec(seed);
            let scenario = ScenarioBuilder::new(config).build();
            let polisher = Polisher::new(PolishConfig::default());
            let profiles = ProfileBuilder::new(ProfilePolicy::default());
            let known = refine(
                &polisher.polish(&scenario.tmg).0,
                spec.refine_config(),
                &profiles,
            );
            let mut unknown = refine(
                &polisher.polish(&scenario.dm).0,
                spec.refine_config(),
                &profiles,
            );
            unknown.users.truncate(MIXED_MAX_UNKNOWNS);
            let truth = scenario.true_pairs(&known, &unknown);
            (known, unknown, truth)
        }
    };
    let write = |name: &str, result: std::io::Result<()>| {
        result.map_err(|e| format!("{}: {e}", tmp.join(name).display()))
    };
    write(KNOWN_FILE, save_corpus(&known, &tmp.join(KNOWN_FILE)))?;
    write(UNKNOWN_FILE, save_corpus(&unknown, &tmp.join(UNKNOWN_FILE)))?;
    let truth_text: String = truth.iter().map(|(k, u)| format!("{k}\t{u}\n")).collect();
    write(TRUTH_FILE, fs::write(tmp.join(TRUTH_FILE), truth_text))?;
    let manifest = manifest_text(digest, &tmp)?;
    write(MANIFEST_FILE, fs::write(tmp.join(MANIFEST_FILE), manifest))?;
    let _ = fs::remove_dir_all(&dir);
    fs::rename(&tmp, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Ground truth: `(known_alias, unknown_alias)` pairs of one persona.
pub fn load_truth(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let path = dir.join(TRUTH_FILE);
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            line.split_once('\t')
                .map(|(k, u)| (k.to_string(), u.to_string()))
                .ok_or_else(|| format!("{}: malformed line {line:?}", path.display()))
        })
        .collect()
}
