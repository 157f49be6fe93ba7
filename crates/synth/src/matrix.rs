//! The scenario-matrix catalog (DESIGN.md §12): named workload scenarios
//! crossed with named scales, each mapping deterministically to a
//! [`ScenarioConfig`].
//!
//! A matrix *cell* is a `(scenario, scale, seed)` triple. The cell's
//! world seed mixes the base seed with the cell id (FNV-1a), so every
//! cell generates a distinct world, yet the same triple always yields
//! byte-identical corpora — the property the committed `BENCH_*.json`
//! baselines and their `--check` regression gate rely on.
//!
//! Matrix worlds are **dark-only** (no Reddit): the benchmark links the
//! refined Dream Market aliases against the refined Majestic Garden
//! aliases, with the TMG↔DM cross personas as ground truth. This keeps a
//! cell's cost proportional to the dark-forum population, which is what
//! the scales dial.

use crate::scenario::ScenarioConfig;
use darklight_corpus::refine::RefineConfig;
use darklight_govern::Fnv1a;

/// Base seed of the committed benchmark baselines.
pub const MATRIX_SEED: u64 = 0xD19B_117E;

/// A named workload scenario: which generator dials are turned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Calibrated defaults: static styles, no adversaries, English only.
    Clean,
    /// Large cross-forum drift plus within-author style evolution.
    HighDrift,
    /// Dark residents imitating cross-persona styles (hard negatives).
    AdversarialImitation,
    /// Code-switching authors and a large foreign-account population.
    MixedLanguage,
    /// Many aliases below the 30-usable-timestamp activity floor.
    SparseHistory,
    /// All of the above at moderate strength.
    Mixed,
}

impl ScenarioKind {
    /// Every scenario, in canonical (reporting) order.
    pub const ALL: [ScenarioKind; 6] = [
        ScenarioKind::Clean,
        ScenarioKind::HighDrift,
        ScenarioKind::AdversarialImitation,
        ScenarioKind::MixedLanguage,
        ScenarioKind::SparseHistory,
        ScenarioKind::Mixed,
    ];

    /// Canonical name (used in cell ids and `BENCH_*` file names).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Clean => "clean",
            ScenarioKind::HighDrift => "high-drift",
            ScenarioKind::AdversarialImitation => "adversarial-imitation",
            ScenarioKind::MixedLanguage => "mixed-language",
            ScenarioKind::SparseHistory => "sparse-history",
            ScenarioKind::Mixed => "mixed",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(name: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The refinement activity floor for this scenario. Sparse scenarios
    /// drop it to 1 so below-floor authors survive refinement: their
    /// records carry no activity profile (activity scoring skips them)
    /// but they remain rankable by text alone.
    pub fn min_timestamps(self) -> usize {
        match self {
            ScenarioKind::SparseHistory | ScenarioKind::Mixed => 1,
            _ => RefineConfig::default().min_timestamps,
        }
    }

    /// Turns this scenario's dials on a base config.
    fn apply(self, cfg: &mut ScenarioConfig) {
        match self {
            ScenarioKind::Clean => {}
            ScenarioKind::HighDrift => {
                cfg.dark_drift = 0.45;
                cfg.style_epochs = 4;
                cfg.epoch_drift = 0.30;
            }
            ScenarioKind::AdversarialImitation => {
                cfg.imitator_frac = 0.30;
            }
            ScenarioKind::MixedLanguage => {
                cfg.code_switch_rate = 0.12;
                cfg.noise.foreign_frac = 0.30;
            }
            ScenarioKind::SparseHistory => {
                cfg.sparse_frac = 0.35;
            }
            ScenarioKind::Mixed => {
                cfg.dark_drift = 0.30;
                cfg.style_epochs = 3;
                cfg.epoch_drift = 0.20;
                cfg.imitator_frac = 0.15;
                cfg.code_switch_rate = 0.06;
                cfg.sparse_frac = 0.20;
                cfg.noise.foreign_frac = 0.15;
            }
        }
    }
}

/// A named scale: how many dark-forum authors a cell generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixScale {
    /// Test scale: seconds per cell; used by the pinned roundtrip tests.
    Tiny,
    /// ≈ 1k authors; the committed-baseline and CI scale.
    Small,
    /// ≈ 10k authors; committed baselines, slower to regenerate.
    Medium,
    /// ≈ 30k authors; opt-in only (`--include-large`).
    Large,
}

impl MatrixScale {
    /// Every scale, smallest first.
    pub const ALL: [MatrixScale; 4] = [
        MatrixScale::Tiny,
        MatrixScale::Small,
        MatrixScale::Medium,
        MatrixScale::Large,
    ];

    /// Canonical name (used in cell ids and `BENCH_*` file names).
    pub fn name(self) -> &'static str {
        match self {
            MatrixScale::Tiny => "t",
            MatrixScale::Small => "s",
            MatrixScale::Medium => "m",
            MatrixScale::Large => "l",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(name: &str) -> Option<MatrixScale> {
        MatrixScale::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether this scale requires an explicit opt-in flag.
    pub fn opt_in(self) -> bool {
        matches!(self, MatrixScale::Large)
    }

    /// World shape: (rich TMG aliases, rich DM aliases, TMG↔DM cross
    /// personas, thin users per rich user).
    fn shape(self) -> (usize, usize, usize, f64) {
        match self {
            MatrixScale::Tiny => (16, 12, 6, 0.4),
            MatrixScale::Small => (420, 280, 40, 0.5),
            MatrixScale::Medium => (3_000, 2_000, 120, 1.0),
            MatrixScale::Large => (9_000, 6_000, 360, 1.5),
        }
    }

    /// Posts per rich user: the bigger scales trim the per-author volume
    /// so cell cost grows with the population, not quadratically.
    fn posts_per_user(self) -> (usize, usize) {
        match self {
            MatrixScale::Tiny | MatrixScale::Small => (70, 130),
            MatrixScale::Medium | MatrixScale::Large => (70, 100),
        }
    }

    /// Cap on unknown (DM) aliases entering the timed link, mirroring the
    /// paper's 1,000-alter-ego cap. Always larger than the cross-persona
    /// count, so every ground-truth positive stays in the pool alongside
    /// resident distractors.
    pub fn max_unknowns(self) -> usize {
        match self {
            MatrixScale::Tiny => 24,
            MatrixScale::Small => 150,
            MatrixScale::Medium => 250,
            MatrixScale::Large => 400,
        }
    }

    /// Approximate distinct authors in the generated world (rich + thin +
    /// noise), the number the scale names advertise.
    pub fn approx_authors(self) -> usize {
        let (tmg, dm, cross, thin) = self.shape();
        let rich = tmg + dm - cross;
        let thin_users = ((tmg + dm) as f64 * thin) as usize;
        let noise = ((tmg + dm) as f64 * 0.10) as usize;
        rich + thin_users + noise
    }
}

/// One matrix cell: a scenario at a scale under a base seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// The workload scenario.
    pub kind: ScenarioKind,
    /// The world scale.
    pub scale: MatrixScale,
    /// Base seed, mixed with the cell id into the world seed.
    pub seed: u64,
}

impl CellSpec {
    /// A cell under the committed-baseline seed.
    pub fn new(kind: ScenarioKind, scale: MatrixScale) -> CellSpec {
        CellSpec {
            kind,
            scale,
            seed: MATRIX_SEED,
        }
    }

    /// Canonical cell id, e.g. `clean_s`.
    pub fn id(&self) -> String {
        format!("{}_{}", self.kind.name(), self.scale.name())
    }

    /// The committed baseline file name, e.g. `BENCH_clean_s.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.id())
    }

    /// The full generator config for this cell. Dark-only: no Reddit
    /// users and no Reddit cross personas.
    pub fn config(&self) -> ScenarioConfig {
        let (tmg, dm, cross, thin) = self.scale.shape();
        let mut cfg = ScenarioConfig {
            seed: mix_seed(self.seed, &self.id()),
            reddit_users: 0,
            tmg_users: tmg,
            dm_users: dm,
            cross_tmg_dm: cross,
            cross_reddit_tmg: 0,
            cross_reddit_dm: 0,
            thin_frac: thin,
            posts_per_user: self.scale.posts_per_user(),
            ..ScenarioConfig::small()
        };
        self.kind.apply(&mut cfg);
        cfg
    }

    /// The refinement thresholds for this cell (scenario-dependent
    /// activity floor, standard word floor).
    pub fn refine_config(&self) -> RefineConfig {
        RefineConfig {
            min_timestamps: self.kind.min_timestamps(),
            ..RefineConfig::default()
        }
    }
}

/// The cross product of the requested scenarios and scales.
pub fn cells_for(kinds: &[ScenarioKind], scales: &[MatrixScale], seed: u64) -> Vec<CellSpec> {
    let mut out = Vec::with_capacity(kinds.len() * scales.len());
    for &scale in scales {
        for &kind in kinds {
            out.push(CellSpec { kind, scale, seed });
        }
    }
    out
}

/// FNV-1a over the cell id, xor-folded with the base seed: cheap,
/// stable, and collision-free over the small id namespace.
fn mix_seed(seed: u64, id: &str) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(id.as_bytes());
    hash.finish() ^ seed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_pinned() {
        // Every committed baseline's world is generated from this digest.
        assert_eq!(mix_seed(7, "clean_s"), 0xaca3_3c1b_cf9c_17e7);
    }

    #[test]
    fn names_roundtrip() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::from_name(kind.name()), Some(kind));
        }
        for scale in MatrixScale::ALL {
            assert_eq!(MatrixScale::from_name(scale.name()), Some(scale));
        }
        assert_eq!(ScenarioKind::from_name("bogus"), None);
        assert_eq!(MatrixScale::from_name("xl"), None);
    }

    #[test]
    fn cell_seeds_differ_per_cell_and_per_base_seed() {
        let a = CellSpec::new(ScenarioKind::Clean, MatrixScale::Tiny);
        let b = CellSpec::new(ScenarioKind::HighDrift, MatrixScale::Tiny);
        let c = CellSpec::new(ScenarioKind::Clean, MatrixScale::Small);
        assert_ne!(a.config().seed, b.config().seed);
        assert_ne!(a.config().seed, c.config().seed);
        let perturbed = CellSpec {
            seed: MATRIX_SEED + 1,
            ..a
        };
        assert_ne!(a.config().seed, perturbed.config().seed);
    }

    #[test]
    fn configs_are_dark_only_and_scenario_dialed() {
        for kind in ScenarioKind::ALL {
            let cfg = CellSpec::new(kind, MatrixScale::Tiny).config();
            assert_eq!(cfg.reddit_users, 0);
            assert_eq!(cfg.cross_reddit_tmg, 0);
            assert_eq!(cfg.cross_reddit_dm, 0);
            if kind != ScenarioKind::Clean {
                assert_ne!(
                    cfg,
                    CellSpec::new(ScenarioKind::Clean, MatrixScale::Tiny).config(),
                    "{} must differ from clean",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn unknown_cap_covers_every_positive() {
        for scale in MatrixScale::ALL {
            let (_, _, cross, _) = scale.shape();
            assert!(scale.max_unknowns() > cross, "{}", scale.name());
        }
    }

    #[test]
    fn scale_author_counts_match_names() {
        let s = MatrixScale::Small.approx_authors();
        assert!((700..=1_500).contains(&s), "s = {s}");
        let m = MatrixScale::Medium.approx_authors();
        assert!((8_000..=12_000).contains(&m), "m = {m}");
    }
}
