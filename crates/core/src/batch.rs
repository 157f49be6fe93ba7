//! RAM-bounded batch processing (§IV-J of the paper).
//!
//! When the known set is too large for memory, the paper splits it into
//! batches of `B` aliases, runs 10-attribution within each batch, pools the
//! per-batch survivors, and repeats until at most `B` candidates remain;
//! the final two-stage step then runs on that reduced set. Validated in
//! the paper with `B = 100`, giving precision 91% / recall 81% at the
//! global threshold — within a few points of the unbatched pipeline.
//!
//! Long batched runs are exactly the ones that get killed mid-flight, so
//! [`run_batched_governed`] with a [`CheckpointSpec`] persists the
//! survivor pools after every round (see [`crate::checkpoint`]) and
//! resumes from the last completed round. Resumption is refused when the run fingerprint — config plus
//! dataset contents — does not match the checkpoint, because stale pools
//! against a changed corpus would rank confidently and wrongly.
//!
//! ## Resource governance
//!
//! [`run_batched`] delegates to [`run_batched_governed`], which reads
//! the engine's [`darklight_govern::GovernConfig`] and supervises the
//! round loop:
//!
//! * **Budget** — [`BatchConfig::derive`] turns a byte budget into the
//!   largest admissible `B` under a conservative cost model (the unknown
//!   set is resident every round; each candidate in a batch costs its
//!   worst-case record estimate). Before every round the governor
//!   re-measures the *actual* upcoming round against the budget and
//!   halves `B` until it fits (the pressure ladder), recording
//!   `govern.batch_shrinks` and `govern.bytes_estimated`. `B` never
//!   grows back: shrinking is a memory-safety decision, re-growing
//!   would make output depend on when pressure happened to ease.
//! * **Deadline** — checked between rounds, between batches, and inside
//!   the parallel fan-out's chunk loops. Expiry abandons the partial
//!   round wholesale (so output stays thread-count-invariant) and
//!   surfaces [`darklight_govern::GovernError::DeadlineExpired`] with
//!   the last completed round's checkpoint intact on disk. The final
//!   rescore, once reached, always runs to completion.
//! * **Retries** — checkpoint saves/loads go through the governor's
//!   jittered-backoff retry, seeded by the run fingerprint.

use crate::attrib::Ranked;
use crate::checkpoint::{self, Checkpoint, Fnv1a};
use crate::dataset::Dataset;
use crate::twostage::{RankedMatch, TwoStage};
use darklight_govern::{Deadline, EstimateBytes, Expired, GovernError, MemoryBudget};
use darklight_store::StoreError;
use std::fmt;
use std::path::PathBuf;

/// Batched attribution configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Maximum aliases the "hardware" can hold at once (paper: 100).
    pub batch_size: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { batch_size: 100 }
    }
}

impl BatchConfig {
    /// Checks the configuration is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::InvalidConfig`] when `batch_size` is zero —
    /// a zero batch can never admit a candidate, so the round loop could
    /// not terminate.
    pub fn validate(&self) -> Result<(), BatchError> {
        if self.batch_size == 0 {
            return Err(BatchError::InvalidConfig(
                "batch size must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// Derives the largest batch size admissible under `budget` for this
    /// known/unknown pair, replacing the hardcoded `B`.
    ///
    /// The model is deliberately conservative: a round must hold the
    /// unknown set ([`budget_overhead_bytes`]) plus one batch, and every
    /// batch member is charged the *worst-case* record cost
    /// ([`budget_per_candidate_bytes`]). Conservatism is what makes the
    /// governed-equals-fixed parity hold: the in-run measured estimate
    /// (actual batch contents, same units) can never exceed what
    /// derivation budgeted for, so a run under `--mem-budget X` never
    /// shrinks below `derive(X)` and stays byte-identical to the
    /// equivalent explicit `--batch-size`.
    ///
    /// # Errors
    ///
    /// [`GovernError::BudgetTooSmall`] when even a single-candidate
    /// batch does not fit; the message names the minimum viable budget.
    pub fn derive(
        budget: &MemoryBudget,
        known: &Dataset,
        unknown: &Dataset,
    ) -> Result<BatchConfig, GovernError> {
        let overhead = budget_overhead_bytes(unknown);
        let per = budget_per_candidate_bytes(known).max(1);
        let required = overhead.saturating_add(per);
        let admissible = budget
            .bytes()
            .checked_sub(overhead)
            .map_or(0, |room| room / per);
        if admissible == 0 {
            return Err(GovernError::BudgetTooSmall {
                budget: budget.bytes(),
                required,
            });
        }
        let batch_size = usize::try_from(admissible)
            .unwrap_or(usize::MAX)
            .min(known.len().max(1));
        Ok(BatchConfig { batch_size })
    }
}

/// Bytes resident in every round regardless of batch size: the unknown
/// dataset, which each round vectorizes against the batch.
pub fn budget_overhead_bytes(unknown: &Dataset) -> u64 {
    unknown.estimate_bytes()
}

/// Worst-case bytes one known candidate adds to a round: the largest
/// record estimate in the dataset. A record's estimate includes its
/// n-gram counting maps, which bound the per-round vector block built
/// from them (a sparse vector holds at most one entry per distinct
/// counted term — see `SparseVector::estimate_bytes`).
pub fn budget_per_candidate_bytes(known: &Dataset) -> u64 {
    known
        .records
        .iter()
        .map(EstimateBytes::estimate_bytes)
        .max()
        .unwrap_or(0)
}

/// Errors from batched attribution.
#[derive(Debug)]
pub enum BatchError {
    /// The [`BatchConfig`] fails [`BatchConfig::validate`].
    InvalidConfig(String),
    /// Loading or saving the checkpoint failed, the file is not an
    /// intact checkpoint, or it belongs to a different run
    /// ([`StoreError::FingerprintMismatch`]).
    Checkpoint(StoreError),
    /// The run stopped after [`CheckpointSpec::interrupt_after_rounds`]
    /// rounds; the checkpoint on disk holds the state reached so far.
    Interrupted {
        /// Total rounds completed (including any resumed ones).
        rounds_done: u64,
    },
    /// The resource governor stopped the run (deadline expired, budget
    /// infeasible); checkpointed progress, if any, remains on disk.
    Govern(GovernError),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::InvalidConfig(why) => write!(f, "invalid batch config: {why}"),
            BatchError::Checkpoint(e @ StoreError::FingerprintMismatch { .. }) => write!(
                f,
                "checkpoint {e} — the config or corpus changed since it was written; \
                 delete the checkpoint (or point --checkpoint elsewhere) to start fresh"
            ),
            BatchError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            BatchError::Interrupted { rounds_done } => {
                write!(
                    f,
                    "interrupted after {rounds_done} rounds (checkpoint saved)"
                )
            }
            BatchError::Govern(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Checkpoint(e) => Some(e),
            BatchError::Govern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for BatchError {
    fn from(e: StoreError) -> BatchError {
        BatchError::Checkpoint(e)
    }
}

impl From<GovernError> for BatchError {
    fn from(e: GovernError) -> BatchError {
        BatchError::Govern(e)
    }
}

/// Where (and whether) a checkpointed run persists its state.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file; written after every round, removed on success.
    pub path: PathBuf,
    /// Fault-injection hook: stop with [`BatchError::Interrupted`] after
    /// this many rounds *in this process* (the round's checkpoint is
    /// saved first). Simulates a kill mid-run for resume tests; `None`
    /// in production.
    pub interrupt_after_rounds: Option<u64>,
}

impl CheckpointSpec {
    /// A production spec: checkpoint at `path`, never self-interrupt.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointSpec {
        CheckpointSpec {
            path: path.into(),
            interrupt_after_rounds: None,
        }
    }
}

/// Runs the hierarchical batched pipeline: batched k-attribution rounds
/// until the candidate pool fits one batch, then the standard second stage.
///
/// Delegates to [`run_batched_governed`] without a checkpoint; the
/// engine's governor (budget/deadline) still applies.
///
/// # Errors
///
/// Returns [`BatchError::InvalidConfig`] when `config` fails validation,
/// and [`BatchError::Govern`] when the engine's governor stops the run;
/// no other error is possible without a checkpoint.
pub fn run_batched(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
) -> Result<Vec<RankedMatch>, BatchError> {
    run_batched_governed(engine, config, known, unknown, None)
}

/// The single batched driver: every entry point funnels here, so this is
/// the one place that validates the config (a zero batch size from a
/// deserialized config could otherwise re-enter a non-terminating round
/// loop) and consults the engine's governor (see the module docs).
///
/// `spec` enables crash recovery: the survivor pools are persisted to
/// `spec.path` after every round, a valid checkpoint there is resumed
/// instead of starting over, and the file is removed on success.
/// Checkpoint I/O goes through the governor's retry policy with backoff
/// jitter seeded by the run fingerprint, so retried runs replay the same
/// schedule.
///
/// # Errors
///
/// [`BatchError::InvalidConfig`] on a bad config;
/// [`BatchError::Checkpoint`] when the checkpoint cannot be read or
/// written, or when its fingerprint does not match this run (config or
/// corpus changed — delete the file to start fresh);
/// [`BatchError::Interrupted`] when the test-only interrupt hook fires;
/// and [`BatchError::Govern`] for budget infeasibility
/// ([`BatchConfig::derive`] failures surface earlier, in the linker) and
/// deadline expiry.
pub fn run_batched_governed(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
    spec: Option<&CheckpointSpec>,
) -> Result<Vec<RankedMatch>, BatchError> {
    config.validate()?;
    let metrics = &engine.config().metrics;
    let govern = &engine.config().govern;
    let _total = metrics.timer("batch.total").start();
    metrics
        .gauge("batch.batch_size")
        .set(config.batch_size as i64);
    let ctx = spec.map(|s| (s, run_fingerprint(engine, config, known, unknown)));
    let (mut survivors, mut rounds_done) = match &ctx {
        None => (fresh_pools(known, unknown), 0),
        Some((spec, fingerprint)) => {
            // Checkpoint hygiene: a crash between the tmp write and the
            // rename leaves a stale sibling behind. It was never named
            // `spec.path`, so it holds no recoverable state — remove it
            // before this run starts writing its own tmp files there.
            let stale = spec.path.with_extension("tmp");
            if stale.exists() && std::fs::remove_file(&stale).is_ok() {
                metrics.counter("govern.tmp_cleaned").incr();
            }
            match checkpoint::load_retrying(&spec.path, &govern.retry, *fingerprint, metrics)? {
                Some(ck) => {
                    if ck.fingerprint != *fingerprint {
                        return Err(BatchError::Checkpoint(StoreError::FingerprintMismatch {
                            expected: *fingerprint,
                            found: ck.fingerprint,
                        }));
                    }
                    if ck.survivors.len() != unknown.len()
                        || ck.survivors.iter().flatten().any(|&i| i >= known.len())
                    {
                        return Err(BatchError::Checkpoint(StoreError::Malformed(format!(
                            "survivor pools do not fit the datasets ({} pools for {} unknowns)",
                            ck.survivors.len(),
                            unknown.len()
                        ))));
                    }
                    metrics.counter("batch.resumed").incr();
                    metrics
                        .gauge("batch.resumed_round")
                        .set(ck.rounds_done as i64);
                    (ck.survivors, ck.rounds_done)
                }
                None => (fresh_pools(known, unknown), 0),
            }
        }
    };
    let resumed_at = rounds_done;
    run_rounds(
        engine,
        config,
        known,
        unknown,
        &mut survivors,
        &mut rounds_done,
        |done, pools| {
            let Some((spec, fingerprint)) = &ctx else {
                return Ok(());
            };
            checkpoint::save_retrying(
                &spec.path,
                &Checkpoint {
                    fingerprint: *fingerprint,
                    rounds_done: done,
                    survivors: pools.to_vec(),
                },
                &govern.retry,
                *fingerprint,
                metrics,
            )?;
            if let Some(limit) = spec.interrupt_after_rounds {
                if done - resumed_at >= limit {
                    return Err(BatchError::Interrupted { rounds_done: done });
                }
            }
            Ok(())
        },
    )?;
    let out = finalize(engine, known, unknown, &survivors);
    if let Some((spec, _)) = &ctx {
        checkpoint::remove(&spec.path);
    }
    Ok(out)
}

/// Fingerprint identifying a batched run: engine config (`k`, threshold,
/// both feature stages), batch size, and both datasets' contents (names,
/// n-gram orders, aliases, personas, selected text, activity profiles).
///
/// Deliberately excluded: the metrics handle (enabling `--metrics` never
/// changes output — pinned by `tests/metrics_parity.rs` — so it must not
/// invalidate a checkpoint) and the thread count (output is
/// thread-count-invariant — pinned by `tests/thread_parity.rs`).
pub fn run_fingerprint(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(config.batch_size as u64);
    let ec = engine.config();
    h.write_u64(ec.k as u64);
    h.write(&ec.threshold.to_bits().to_le_bytes());
    hash_feature_config(&mut h, &ec.reduction);
    hash_feature_config(&mut h, &ec.final_stage);
    hash_dataset(&mut h, known);
    hash_dataset(&mut h, unknown);
    h.finish()
}

pub(crate) fn hash_feature_config(h: &mut Fnv1a, fc: &darklight_features::pipeline::FeatureConfig) {
    h.write_u64(fc.max_word_n as u64);
    h.write_u64(fc.max_char_n as u64);
    h.write_u64(fc.top_word_ngrams as u64);
    h.write_u64(fc.top_char_ngrams as u64);
    for w in [
        fc.word_weight,
        fc.char_weight,
        fc.char_class_weight,
        fc.activity_weight,
    ] {
        h.write(&w.to_bits().to_le_bytes());
    }
}

pub(crate) fn hash_dataset(h: &mut Fnv1a, ds: &Dataset) {
    h.write_str(&ds.name);
    let (max_word_n, max_char_n) = ds.ngram_orders();
    h.write_u64(max_word_n as u64);
    h.write_u64(max_char_n as u64);
    h.write_u64(ds.len() as u64);
    for r in &ds.records {
        h.write_str(&r.alias);
        match r.persona {
            Some(p) => {
                h.write(&[1]);
                h.write_u64(p);
            }
            None => h.write(&[0]),
        }
        h.write_str(&r.text);
        // The derived Debug form is deterministic and covers every field
        // that feeds the activity feature block.
        match &r.profile {
            Some(p) => h.write_str(&format!("{p:?}")),
            None => h.write(&[0]),
        }
    }
}

fn fresh_pools(known: &Dataset, unknown: &Dataset) -> Vec<Vec<usize>> {
    vec![(0..known.len()).collect(); unknown.len()]
}

/// Peak per-batch footprint of the upcoming round: the largest sum of
/// per-record estimates over any single batch of any pool. The pressure
/// ladder compares this (plus the fixed overhead) against the budget.
fn peak_round_bytes(pools: &[Vec<usize>], record_bytes: &[u64], batch_size: usize) -> u64 {
    pools
        .iter()
        .flat_map(|pool| {
            pool.chunks(batch_size)
                .map(|chunk| chunk.iter().map(|&i| record_bytes[i]).sum::<u64>())
        })
        .max()
        .unwrap_or(0)
}

/// The round loop shared by every entry point. `after_round` runs once
/// per completed round (checkpointing hook); its error aborts the run
/// with the pools already updated in place. The engine's governor is
/// consulted here: the deadline at round boundaries (and cooperatively
/// inside rounds), the memory budget before each round via the pressure
/// ladder described in the module docs.
fn run_rounds<F>(
    engine: &TwoStage,
    config: &BatchConfig,
    known: &Dataset,
    unknown: &Dataset,
    survivors: &mut Vec<Vec<usize>>,
    rounds_done: &mut u64,
    mut after_round: F,
) -> Result<(), BatchError>
where
    F: FnMut(u64, &[Vec<usize>]) -> Result<(), BatchError>,
{
    let metrics = &engine.config().metrics;
    let govern = &engine.config().govern;
    let deadline = &govern.deadline;
    let rounds = metrics.counter("batch.rounds");
    let peak_pool = metrics.gauge("batch.peak_pool");
    // Per-record byte estimates, computed once; the ladder re-measures
    // every round because pools shrink and batches re-chunk as B halves.
    let measure: Option<(u64, Vec<u64>)> = govern.budget.map(|_| {
        (
            budget_overhead_bytes(unknown),
            known
                .records
                .iter()
                .map(EstimateBytes::estimate_bytes)
                .collect(),
        )
    });
    let mut batch_size = config.batch_size;
    // Iterate rounds until every unknown's pool fits in one batch. Each
    // round applies k-attribution within batches of B. A round maps each
    // pool to a subset of itself, so pools shrink monotonically — but
    // when `batch_size <= k` every batch keeps all its members and the
    // pool is a fixed point. A round that changes nothing would repeat
    // forever (the map is deterministic), so bail out and let the final
    // stage rescore the oversized pools instead of hanging.
    loop {
        let max_pool = survivors.iter().map(Vec::len).max().unwrap_or(0);
        peak_pool.set_max(max_pool as i64);
        if max_pool <= batch_size {
            break;
        }
        if deadline.check(*rounds_done).is_err() {
            metrics.counter("govern.deadline_expired").incr();
            return Err(BatchError::Govern(GovernError::DeadlineExpired {
                rounds_done: *rounds_done,
            }));
        }
        // Pressure ladder: measure the upcoming round's peak batch
        // footprint and halve B until it fits the budget (floor 1: at
        // B = 1 the round runs best-effort). B never grows back, so a
        // governed run's round structure is a deterministic function of
        // the corpus and the budget, never of transient timing.
        if let (Some(budget), Some((overhead, record_bytes))) = (govern.budget, &measure) {
            loop {
                let measured = overhead + peak_round_bytes(survivors, record_bytes, batch_size);
                metrics
                    .gauge("govern.bytes_estimated")
                    .set_max(measured as i64);
                if measured <= budget.bytes() || batch_size <= 1 {
                    break;
                }
                batch_size = (batch_size / 2).max(1);
                metrics.counter("govern.batch_shrinks").incr();
                metrics.gauge("batch.batch_size").set(batch_size as i64);
            }
        }
        rounds.incr();
        let before = survivors.clone();
        // A mid-round expiry discards the whole round's partial work —
        // all-or-nothing — so the surviving pools (and any checkpoint)
        // only ever hold completed rounds, keeping resumed output bytes
        // independent of where the clock ran out and of thread count.
        let expired = |done: u64| {
            metrics.counter("govern.deadline_expired").incr();
            BatchError::Govern(GovernError::DeadlineExpired { rounds_done: done })
        };
        // All unknowns share rounds but pools can differ after round one;
        // in round one all pools are identical, afterwards k·ceil(n/B)
        // shrinks fast. Process per unknown-group with identical pools to
        // reuse fits: in practice pools stay identical across unknowns
        // only in round one, so round two onward we just batch per unknown.
        let identical = survivors.windows(2).all(|w| w[0] == w[1]);
        if identical && !survivors.is_empty() {
            let pool = survivors[0].clone();
            *survivors = batched_round(engine, batch_size, known, unknown, &pool, None, deadline)
                .map_err(|_| expired(*rounds_done))?;
        } else {
            // Divergent pools: each unknown reduces against its own pool,
            // independently of the others — fan the per-unknown rounds out
            // over the worker pool, keeping pool order by construction.
            let threads = engine.config().effective_threads();
            *survivors =
                darklight_par::par_map_deadline(survivors, threads, deadline, |u, pool| {
                    // With `Some(u)` the round returns exactly one pool;
                    // `concat` unwraps it without a panic path.
                    batched_round(engine, batch_size, known, unknown, pool, Some(u), deadline)
                        .map(|pools| pools.concat())
                })
                .map_err(|_| expired(*rounds_done))?
                .into_iter()
                .collect::<Result<Vec<Vec<usize>>, Expired>>()
                .map_err(|_| expired(*rounds_done))?;
        }
        let stalled = *survivors == before;
        if stalled {
            metrics.counter("batch.stalled").incr();
        }
        *rounds_done += 1;
        after_round(*rounds_done, survivors)?;
        deadline.tick_round();
        if stalled {
            break;
        }
    }
    Ok(())
}

/// Final stage: rescore each unknown against its surviving pool.
fn finalize(
    engine: &TwoStage,
    known: &Dataset,
    unknown: &Dataset,
    survivors: &[Vec<usize>],
) -> Vec<RankedMatch> {
    let metrics = &engine.config().metrics;
    let pool_sizes = metrics.histogram("batch.final_pool_size");
    for pool in survivors {
        pool_sizes.record(pool.len() as u64);
    }
    let stage1: Vec<Vec<Ranked>> = survivors
        .iter()
        .enumerate()
        .map(|(u, pool)| {
            if pool.is_empty() {
                return Vec::new();
            }
            let sub = subset(known, pool);
            let one = subset_one(unknown, u);
            let reduced = engine.reduce(&sub, &one);
            reduced[0]
                .iter()
                .take(engine.config().k)
                .map(|r| Ranked {
                    index: pool[r.index],
                    score: r.score,
                })
                .collect()
        })
        .collect();
    engine.rescore(known, unknown, stage1)
}

/// One batched k-attribution round over `pool`. When `only` is given, only
/// that unknown is scored (used when pools diverge); otherwise all
/// unknowns are scored and the function returns one new pool per unknown.
///
/// Checks `deadline` before each batch so an expired run stops within one
/// batch of work; the partial round is discarded by the caller.
fn batched_round(
    engine: &TwoStage,
    batch_size: usize,
    known: &Dataset,
    unknown: &Dataset,
    pool: &[usize],
    only: Option<usize>,
    deadline: &Deadline,
) -> Result<Vec<Vec<usize>>, Expired> {
    let n_unknown = if only.is_some() { 1 } else { unknown.len() };
    let mut new_pools: Vec<Vec<usize>> = vec![Vec::new(); n_unknown];
    for batch in pool.chunks(batch_size) {
        if deadline.is_expired() {
            return Err(Expired);
        }
        let sub = subset(known, batch);
        let uset = match only {
            Some(u) => subset_one(unknown, u),
            None => unknown.clone(),
        };
        let reduced = engine.reduce(&sub, &uset);
        for (slot, ranked) in new_pools.iter_mut().zip(reduced) {
            for r in ranked.iter().take(engine.config().k) {
                slot.push(batch[r.index]);
            }
        }
    }
    for p in &mut new_pools {
        p.sort_unstable();
        p.dedup();
    }
    Ok(new_pools)
}

fn subset(ds: &Dataset, indices: &[usize]) -> Dataset {
    let (max_word_n, max_char_n) = ds.ngram_orders();
    Dataset::with_orders(
        ds.name.clone(),
        indices.iter().map(|&i| ds.records[i].clone()).collect(),
        max_word_n,
        max_char_n,
    )
}

fn subset_one(ds: &Dataset, index: usize) -> Dataset {
    subset(ds, &[index])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::twostage::TwoStageConfig;
    use darklight_corpus::model::{Corpus, Post, User};

    /// Twelve authors with distinct vocabularies; known + unknown halves.
    fn world() -> (Dataset, Dataset) {
        let vocabs = [
            "kayak paddle rapids portage",
            "espresso grinder portafilter crema",
            "orchid repotting perlite humidity",
            "violin rosin luthier vibrato",
            "falconry jesses tiercel mews",
            "pottery kiln glaze stoneware",
            "beekeeping hive frames nectar",
            "origami crease valley tessellation",
            "astronomy nebula telescope eyepiece",
            "fencing parry riposte piste",
            "calligraphy nib flourish gouache",
            "mycology spores substrate fruiting",
        ];
        let mut known = Corpus::new("known");
        let mut unknown = Corpus::new("unknown");
        let base = 1_486_375_200i64;
        for (pid, vocab) in vocabs.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            for (half, corpus) in [(0usize, &mut known), (1, &mut unknown)] {
                let mut u = User::new(format!("user{pid}_{half}"), Some(pid as u64));
                for i in 0..35i64 {
                    let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
                    let w1 = words[i as usize % words.len()];
                    let w2 = words[(i as usize + 1) % words.len()];
                    u.posts.push(Post::new(
                        format!("my notes about {w1} mention the {w2} setup and more {w1} details for the club"),
                        ts,
                    ));
                }
                corpus.users.push(u);
            }
        }
        let b = DatasetBuilder::new();
        (b.build(&known), b.build(&unknown))
    }

    fn engine() -> TwoStage {
        TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            ..TwoStageConfig::default()
        })
    }

    fn ckpt_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("darklight_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn batched_matches_true_authors() {
        let (known, unknown) = world();
        let results =
            run_batched(&engine(), &BatchConfig { batch_size: 4 }, &known, &unknown).unwrap();
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona, unknown.records[m.unknown].persona,
                "unknown {}",
                m.unknown
            );
        }
    }

    #[test]
    fn batched_agrees_with_unbatched_on_top_match() {
        let (known, unknown) = world();
        let e = engine();
        let unbatched = e.run(&known, &unknown);
        let batched = run_batched(&e, &BatchConfig { batch_size: 5 }, &known, &unknown).unwrap();
        for (a, b) in unbatched.iter().zip(&batched) {
            assert_eq!(
                a.best().map(|r| r.index),
                b.best().map(|r| r.index),
                "unknown {}",
                a.unknown
            );
        }
    }

    #[test]
    fn huge_batch_equals_single_round() {
        let (known, unknown) = world();
        let e = engine();
        let batched = run_batched(
            &e,
            &BatchConfig {
                batch_size: known.len() + 10,
            },
            &known,
            &unknown,
        )
        .unwrap();
        let unbatched = e.run(&known, &unknown);
        for (a, b) in unbatched.iter().zip(&batched) {
            assert_eq!(a.best().map(|r| r.index), b.best().map(|r| r.index));
        }
    }

    #[test]
    fn metrics_track_rounds_and_pools() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        run_batched(&e, &BatchConfig { batch_size: 4 }, &known, &unknown).unwrap();
        // Twelve known aliases in batches of four need at least one
        // reduction round before pools fit a single batch.
        assert!(metrics.counter("batch.rounds").get() >= 1);
        assert_eq!(metrics.gauge("batch.peak_pool").get(), known.len() as i64);
        assert_eq!(
            metrics.histogram("batch.final_pool_size").count(),
            unknown.len() as u64
        );
        assert_eq!(metrics.timer("batch.total").count(), 1);
    }

    #[test]
    fn batch_no_larger_than_k_terminates() {
        // With batch_size <= k every batch keeps all its members, so no
        // round can shrink the pool; the stall guard must break out
        // instead of looping forever, and the final stage still ranks
        // every unknown against its (oversized) pool.
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        let results = run_batched(&e, &BatchConfig { batch_size: 3 }, &known, &unknown).unwrap();
        assert_eq!(metrics.counter("batch.stalled").get(), 1);
        assert_eq!(results.len(), unknown.len());
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
    }

    #[test]
    fn empty_documents_flow_through_batched_pipeline() {
        // An alias whose every post is empty vectorizes to the zero
        // vector (no n-grams, no activity profile) — the classic NaN
        // factory. It must ride through reduction, rescoring, and the
        // batched driver without panicking, in both roles.
        let (mut known_c, mut unknown_c) = (Corpus::new("known"), Corpus::new("unknown"));
        let base = 1_486_375_200i64;
        let vocabs = [
            "kayak paddle rapids portage",
            "espresso grinder portafilter crema",
            "orchid repotting perlite humidity",
        ];
        for (pid, vocab) in vocabs.iter().enumerate() {
            let words: Vec<&str> = vocab.split(' ').collect();
            for (half, corpus) in [(0usize, &mut known_c), (1, &mut unknown_c)] {
                let mut u = User::new(format!("user{pid}_{half}"), Some(pid as u64));
                for i in 0..20i64 {
                    let ts = base + i * 86_400;
                    let w = words[i as usize % words.len()];
                    u.posts
                        .push(Post::new(format!("more notes about {w} today"), ts));
                }
                corpus.users.push(u);
            }
        }
        for (alias, corpus) in [
            ("ghost_known", &mut known_c),
            ("ghost_unknown", &mut unknown_c),
        ] {
            let mut ghost = User::new(alias, None);
            ghost.posts.push(Post::new("", base));
            corpus.users.push(ghost);
        }
        let b = DatasetBuilder::new();
        let (known, unknown) = (b.build(&known_c), b.build(&unknown_c));
        let e = engine();
        let ranked = run_batched(&e, &BatchConfig { batch_size: 2 }, &known, &unknown).unwrap();
        assert_eq!(ranked.len(), unknown.len());
        // No NaN escapes into the final rankings' accepted candidates,
        // and every real unknown still finds its true author.
        for m in &ranked {
            for r in &m.stage2 {
                assert!(!r.score.is_nan(), "NaN leaked for unknown {}", m.unknown);
            }
        }
        for m in ranked.iter().take(vocabs.len()) {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
    }

    #[test]
    fn zero_batch_is_a_typed_error() {
        let (known, unknown) = world();
        let err =
            run_batched(&engine(), &BatchConfig { batch_size: 0 }, &known, &unknown).unwrap_err();
        assert!(
            matches!(&err, BatchError::InvalidConfig(why) if why.contains("positive")),
            "{err}"
        );
    }

    #[test]
    fn checkpointed_run_matches_plain_and_cleans_up() {
        let (known, unknown) = world();
        let e = engine();
        let config = BatchConfig { batch_size: 4 };
        let plain = run_batched(&e, &config, &known, &unknown).unwrap();
        let spec = CheckpointSpec::new(ckpt_path("clean_run.json"));
        let ck = run_batched_governed(&e, &config, &known, &unknown, Some(&spec)).unwrap();
        assert_eq!(plain, ck);
        assert!(!spec.path.exists(), "checkpoint removed on success");
    }

    #[test]
    fn stale_tmp_from_crashed_save_is_cleaned_at_start() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        let config = BatchConfig { batch_size: 4 };
        let spec = CheckpointSpec::new(ckpt_path("stale_tmp.json"));
        checkpoint::remove(&spec.path);
        let stale = spec.path.with_extension("tmp");
        std::fs::write(&stale, b"half-written garbage from a crashed save").unwrap();
        let plain = run_batched(&e, &config, &known, &unknown).unwrap();
        let ck = run_batched_governed(&e, &config, &known, &unknown, Some(&spec)).unwrap();
        assert_eq!(plain, ck, "stale tmp must not perturb the run");
        assert!(!stale.exists(), "stale tmp file removed at startup");
        assert_eq!(metrics.counter("govern.tmp_cleaned").get(), 1);
    }

    #[test]
    fn interrupted_run_resumes_to_identical_output() {
        let (known, unknown) = world();
        let e = engine();
        // batch_size 2 with k=3 stalls after one round, which still
        // exercises save + resume; batch_size 4 gives real multi-round
        // shrinkage. Use 4 and interrupt after the first round.
        let config = BatchConfig { batch_size: 4 };
        let plain = run_batched(&e, &config, &known, &unknown).unwrap();
        let mut spec = CheckpointSpec::new(ckpt_path("kill_resume.json"));
        checkpoint::remove(&spec.path);
        spec.interrupt_after_rounds = Some(1);
        let err = run_batched_governed(&e, &config, &known, &unknown, Some(&spec)).unwrap_err();
        assert!(
            matches!(err, BatchError::Interrupted { rounds_done: 1 }),
            "{err}"
        );
        assert!(spec.path.exists(), "checkpoint persisted at the kill point");
        spec.interrupt_after_rounds = None;
        let resumed = run_batched_governed(&e, &config, &known, &unknown, Some(&spec)).unwrap();
        assert_eq!(plain, resumed, "resumed output must be identical");
        assert!(!spec.path.exists());
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let (known, unknown) = world();
        let e = engine();
        let mut spec = CheckpointSpec::new(ckpt_path("mismatch.json"));
        checkpoint::remove(&spec.path);
        spec.interrupt_after_rounds = Some(1);
        let _ = run_batched_governed(
            &e,
            &BatchConfig { batch_size: 4 },
            &known,
            &unknown,
            Some(&spec),
        )
        .unwrap_err();
        // Same checkpoint, different batch size: a different run.
        spec.interrupt_after_rounds = None;
        let err = run_batched_governed(
            &e,
            &BatchConfig { batch_size: 5 },
            &known,
            &unknown,
            Some(&spec),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                BatchError::Checkpoint(StoreError::FingerprintMismatch { .. })
            ),
            "{err}"
        );
        checkpoint::remove(&spec.path);
    }

    #[test]
    fn bit_rotted_checkpoint_pools_refuse_to_resume() {
        let (known, unknown) = world();
        let e = engine();
        let config = BatchConfig { batch_size: 4 };
        let mut spec = CheckpointSpec::new(ckpt_path("bit_rot.ckpt"));
        checkpoint::remove(&spec.path);
        spec.interrupt_after_rounds = Some(1);
        let err = run_batched_governed(&e, &config, &known, &unknown, Some(&spec)).unwrap_err();
        assert!(matches!(err, BatchError::Interrupted { .. }), "{err}");
        // The pools section is the last one in the file: rot its final
        // byte, which a digit-for-digit text format would have accepted.
        let mut bytes = std::fs::read(&spec.path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&spec.path, &bytes).unwrap();
        spec.interrupt_after_rounds = None;
        let err = run_batched_governed(&e, &config, &known, &unknown, Some(&spec)).unwrap_err();
        assert!(matches!(err, BatchError::Checkpoint(_)), "{err}");
        assert!(spec.path.exists(), "a refused checkpoint is never deleted");
        checkpoint::remove(&spec.path);
    }

    #[test]
    fn corrupt_checkpoint_is_not_retried() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            ..TwoStageConfig::default()
        });
        let spec = CheckpointSpec::new(ckpt_path("not_utf8.ckpt"));
        // Not UTF-8 and not a container: corruption, which re-reading
        // cannot fix.
        std::fs::write(&spec.path, [0xff, 0xfe, 0x00, 0x9c]).unwrap();
        let err = run_batched_governed(
            &e,
            &BatchConfig { batch_size: 4 },
            &known,
            &unknown,
            Some(&spec),
        )
        .unwrap_err();
        assert!(
            matches!(&err, BatchError::Checkpoint(e) if !matches!(e, StoreError::Io(_))),
            "{err}"
        );
        assert_eq!(metrics.counter("govern.io_retries").get(), 0);
        checkpoint::remove(&spec.path);
    }

    #[test]
    fn fingerprint_tracks_content_not_metrics() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let config = BatchConfig { batch_size: 4 };
        let plain = engine();
        let with_metrics = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 7,
            metrics: PipelineMetrics::enabled(),
            ..TwoStageConfig::default()
        });
        // Metrics and thread count must not invalidate a checkpoint...
        assert_eq!(
            run_fingerprint(&plain, &config, &known, &unknown),
            run_fingerprint(&with_metrics, &config, &known, &unknown)
        );
        // ...but config and corpus changes must.
        let other_k = TwoStage::new(TwoStageConfig {
            k: 4,
            threads: 2,
            ..TwoStageConfig::default()
        });
        assert_ne!(
            run_fingerprint(&plain, &config, &known, &unknown),
            run_fingerprint(&other_k, &config, &known, &unknown)
        );
        assert_ne!(
            run_fingerprint(&plain, &config, &known, &unknown),
            run_fingerprint(&plain, &config, &unknown, &known)
        );
    }

    #[test]
    fn derive_picks_largest_admissible_batch() {
        let (known, unknown) = world();
        let overhead = budget_overhead_bytes(&unknown);
        let per = budget_per_candidate_bytes(&known);
        // Room for exactly five worst-case candidates alongside the
        // unknown set.
        let budget = MemoryBudget::from_bytes(overhead + 5 * per).unwrap();
        let config = BatchConfig::derive(&budget, &known, &unknown).unwrap();
        assert_eq!(config.batch_size, 5);
        // A vast budget clamps to the whole known set (one round).
        let vast = MemoryBudget::from_bytes(u64::MAX).unwrap();
        assert_eq!(
            BatchConfig::derive(&vast, &known, &unknown)
                .unwrap()
                .batch_size,
            known.len()
        );
        // Less than one candidate's worth of headroom is infeasible and
        // must fail with the typed, actionable error.
        let tiny = MemoryBudget::from_bytes(overhead + per - 1).unwrap();
        let err = BatchConfig::derive(&tiny, &known, &unknown).unwrap_err();
        assert!(matches!(err, GovernError::BudgetTooSmall { .. }), "{err}");
    }

    #[test]
    fn zero_batch_is_typed_through_every_entry_point() {
        // The governed driver is the single validation point, so a bad
        // config must surface identically with and without a checkpoint
        // and through `run_batched` — and before any checkpoint I/O.
        let (known, unknown) = world();
        let bad = BatchConfig { batch_size: 0 };
        let spec = CheckpointSpec::new(ckpt_path("never_written.json"));
        let err = run_batched_governed(&engine(), &bad, &known, &unknown, Some(&spec)).unwrap_err();
        assert!(matches!(&err, BatchError::InvalidConfig(_)), "{err}");
        assert!(!spec.path.exists(), "validation precedes checkpoint I/O");
        let err = run_batched_governed(&engine(), &bad, &known, &unknown, None).unwrap_err();
        assert!(matches!(&err, BatchError::InvalidConfig(_)), "{err}");
        let err = run_batched(&engine(), &bad, &known, &unknown).unwrap_err();
        assert!(matches!(&err, BatchError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn governed_budget_run_matches_derived_fixed_batch() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let budget = MemoryBudget::from_bytes(
            budget_overhead_bytes(&unknown) + 5 * budget_per_candidate_bytes(&known),
        )
        .unwrap();
        let config = BatchConfig::derive(&budget, &known, &unknown).unwrap();
        let fixed = run_batched(&engine(), &config, &known, &unknown).unwrap();
        let metrics = PipelineMetrics::enabled();
        let governed_engine = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            govern: darklight_govern::GovernConfig {
                budget: Some(budget),
                ..darklight_govern::GovernConfig::default()
            },
            ..TwoStageConfig::default()
        });
        let governed = run_batched(&governed_engine, &config, &known, &unknown).unwrap();
        assert_eq!(fixed, governed, "a derived batch size must never shrink");
        assert_eq!(metrics.counter("govern.batch_shrinks").get(), 0);
        assert!(metrics.gauge("govern.bytes_estimated").get() > 0);
    }

    #[test]
    fn pressure_ladder_shrinks_oversized_batches() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        // The budget admits two worst-case candidates per batch but the
        // config demands eight: the ladder must halve 8 -> 4 -> 2 before
        // the first round runs, then hold at 2.
        let budget = MemoryBudget::from_bytes(
            budget_overhead_bytes(&unknown) + 2 * budget_per_candidate_bytes(&known),
        )
        .unwrap();
        let metrics = PipelineMetrics::enabled();
        let e = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            govern: darklight_govern::GovernConfig {
                budget: Some(budget),
                ..darklight_govern::GovernConfig::default()
            },
            ..TwoStageConfig::default()
        });
        let results = run_batched(&e, &BatchConfig { batch_size: 8 }, &known, &unknown).unwrap();
        assert_eq!(metrics.counter("govern.batch_shrinks").get(), 2);
        assert_eq!(metrics.gauge("batch.batch_size").get(), 2);
        assert!(
            metrics.gauge("govern.bytes_estimated").get() as u64 > budget.bytes(),
            "the breaching estimate is what gets recorded"
        );
        // The degraded run still completes and still links correctly.
        assert_eq!(results.len(), unknown.len());
        for m in &results {
            let best = m.best().expect("candidates exist");
            assert_eq!(
                known.records[best.index].persona,
                unknown.records[m.unknown].persona
            );
        }
        // Shrinking is deterministic: an identical second run produces
        // byte-identical rankings.
        let again = run_batched(&e, &BatchConfig { batch_size: 8 }, &known, &unknown).unwrap();
        assert_eq!(results, again);
    }

    #[test]
    fn deadline_expiry_checkpoints_and_resumes_identically() {
        use darklight_obs::PipelineMetrics;
        let (known, unknown) = world();
        let config = BatchConfig { batch_size: 4 };
        let plain = run_batched(&engine(), &config, &known, &unknown).unwrap();
        let metrics = PipelineMetrics::enabled();
        let strict = TwoStage::new(TwoStageConfig {
            k: 3,
            threads: 2,
            metrics: metrics.clone(),
            govern: darklight_govern::GovernConfig {
                deadline: Deadline::after_rounds(1),
                ..darklight_govern::GovernConfig::default()
            },
            ..TwoStageConfig::default()
        });
        let spec = CheckpointSpec::new(ckpt_path("deadline_resume.json"));
        checkpoint::remove(&spec.path);
        let err =
            run_batched_governed(&strict, &config, &known, &unknown, Some(&spec)).unwrap_err();
        assert!(
            matches!(
                err,
                BatchError::Govern(GovernError::DeadlineExpired { rounds_done: 1 })
            ),
            "{err}"
        );
        assert_eq!(metrics.counter("govern.deadline_expired").get(), 1);
        assert!(spec.path.exists(), "expiry leaves a valid checkpoint");
        // The governor never reaches the fingerprint, so a fresh engine
        // without a deadline resumes the same run to the same bytes.
        let resumed =
            run_batched_governed(&engine(), &config, &known, &unknown, Some(&spec)).unwrap();
        assert_eq!(plain, resumed, "resume after expiry must be lossless");
        assert!(!spec.path.exists());
    }
}
