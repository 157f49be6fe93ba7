//! The untraced (end-to-end) runs of the three workloads, and the
//! reference answers they are checked against.
//!
//! Each run drives the public API the way a user would, from one process
//! and one client, with `threads` workers. Every answer is checked: an
//! operation that panics, errors, or returns an answer other than the
//! independent reference counts as failed. The reference is computed by
//! another path through the API in a separate process (`perfbench
//! reference`), so its memory never shows in a measured run's peak RSS.

use crate::measure::{
    accuracy, beyond, median, peak_rss_mb, process_cpu_s, quantile, render_pairs, timed, Accuracy,
};
use crate::world::{load_truth, Workload, KNOWN_FILE, UNKNOWN_FILE};
use darklight::core::artifact::FitArtifact;
use darklight::core::batch::{
    budget_overhead_bytes, budget_per_candidate_bytes, run_batched, BatchConfig,
};
use darklight::core::dataset::{Dataset, DatasetBuilder};
use darklight::core::linker::{AliasMatch, Linker, LinkerConfig};
use darklight::core::twostage::{RankedMatch, TwoStage, TwoStageConfig};
use darklight::corpus::io::load_corpus;
use darklight::corpus::model::Corpus;
use darklight::govern::{GovernConfig, MemoryBudget};
use darklight::store::EpochStore;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs at least this often and for at least `SETUP_MIN_S` per
/// run; `setup_s` is the median.
const SETUP_REPS: usize = 7;
const SETUP_MIN_S: f64 = 1.0;
/// Fits per `serve-single` run; `fit_s` is their median.
const FIT_REPS: usize = 5;
/// Link calls per `link-cross` run, at least: a call takes several
/// seconds, and `fit_s` is the median of the calls.
const MIN_CALLS: usize = 2;
/// Queries per `serve-single` run, at least: ten samples lie beyond the
/// 95th percentile of 200. The world has at least this many distinct
/// unknown aliases, so the first 200 queries are all different.
const MIN_QUERIES: usize = 200;

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Input sizes and sample counts, for the run context.
    pub info: BTreeMap<String, String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }

    /// Records the measured loop's wall and process CPU time, kept apart.
    fn loop_time(&mut self, cpu0: f64, started: Instant) {
        self.info("loop_cpu_s", format!("{:.2}", process_cpu_s() - cpu0));
        self.info(
            "loop_wall_s",
            format!("{:.2}", started.elapsed().as_secs_f64()),
        );
    }

    fn accuracy(&mut self, acc: &Accuracy) {
        self.metric("pr_auc", acc.pr_auc, "ratio");
        self.metric("f1", acc.f1, "ratio");
        self.info("accuracy_positives", acc.positives);
        self.info("accuracy_threshold", format!("{:?}", acc.threshold));
    }
}

/// Where a run reads its inputs and reference and keeps its scratch
/// files.
#[derive(Debug, Clone)]
pub struct Env {
    pub inputs: PathBuf,
    pub scratch: PathBuf,
    pub seconds: f64,
    pub threads: usize,
    /// The reference answers' file, written by [`reference`].
    pub reference: Option<PathBuf>,
}

impl Env {
    pub fn read(&self, name: &str) -> Result<Corpus, String> {
        let path = self.inputs.join(name);
        load_corpus(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn read_both(&self) -> Result<(Corpus, Corpus), String> {
        Ok((self.read(KNOWN_FILE)?, self.read(UNKNOWN_FILE)?))
    }

    pub fn truth(&self) -> Result<Vec<(String, String)>, String> {
        load_truth(&self.inputs)
    }

    /// The reference answers in canonical bytes ([`render_pairs`]).
    fn reference_text(&self) -> Result<String, String> {
        let path = self.reference.as_ref().ok_or("missing --reference")?;
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn input_bytes(&self) -> u64 {
        [KNOWN_FILE, UNKNOWN_FILE]
            .iter()
            .filter_map(|f| std::fs::metadata(self.inputs.join(f)).ok())
            .map(|m| m.len())
            .sum()
    }

    pub fn store(&self, name: &str) -> Result<EpochStore, String> {
        let root = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(EpochStore::new(root))
    }

    /// The linker every raw-corpus workload uses: paper defaults at
    /// `threads` workers, with the acceptance threshold at 0 so every
    /// unknown's best match is emitted and scored (F1 applies the
    /// calibrated threshold afterwards).
    pub fn linker(&self) -> Linker {
        let mut config = LinkerConfig::default();
        config.two_stage.threads = self.threads;
        config.two_stage.threshold = 0.0;
        Linker::new(config)
    }

    /// The batched engine: paper defaults at `threads` workers, threshold
    /// 0 as in [`linker`](Env::linker), governed by `budget`.
    pub fn batch_engine(&self, budget: MemoryBudget) -> TwoStage {
        TwoStage::new(TwoStageConfig {
            threads: self.threads,
            threshold: 0.0,
            govern: GovernConfig {
                budget: Some(budget),
                ..GovernConfig::default()
            },
            ..TwoStageConfig::default()
        })
    }
}

/// Records the input sizes in the run context.
pub fn record_inputs(out: &mut Outcome, env: &Env, known: &Corpus, unknown: &Corpus) {
    out.info("known_aliases", known.users.len());
    out.info("unknown_aliases", unknown.users.len());
    out.info(
        "input_messages",
        known.total_posts() + unknown.total_posts(),
    );
    out.info("input_bytes", env.input_bytes());
}

/// One user per query corpus, in input order.
pub fn single_alias_queries(unknown: &Corpus) -> Vec<Corpus> {
    unknown
        .users
        .iter()
        .map(|u| Corpus {
            name: unknown.name.clone(),
            users: vec![u.clone()],
        })
        .collect()
}

/// Rendered pairs grouped by unknown alias (a line's second field), each
/// alias's lines in their original order.
fn by_alias(rendered: &str) -> BTreeMap<&str, String> {
    let mut grouped: BTreeMap<&str, String> = BTreeMap::new();
    for line in rendered.split_inclusive('\n') {
        let alias = line.split('\t').nth(1).unwrap_or("");
        grouped.entry(alias).or_default().push_str(line);
    }
    grouped
}

/// The distinct unknown aliases. A corpus may hold two users under one
/// alias, so answers are compared alias by alias, not user by user.
fn distinct_aliases(unknown: &Corpus) -> BTreeSet<&str> {
    unknown.users.iter().map(|u| u.alias.as_str()).collect()
}

/// The aliases whose lines in `got` differ from those in `want` (both
/// rendered pair lists).
fn mismatched<'a>(aliases: &BTreeSet<&'a str>, got: &str, want: &str) -> BTreeSet<&'a str> {
    let (got, want) = (by_alias(got), by_alias(want));
    aliases
        .iter()
        .filter(|a| got.get(*a) != want.get(*a))
        .copied()
        .collect()
}

/// The memory budget `bench-matrix` derives: room for the unknown set
/// plus half the known pool, so the run batches the pool.
pub fn half_pool_budget(known: &Dataset, unknown: &Dataset) -> Result<MemoryBudget, String> {
    let half = (known.len() / 2).max(1) as u64;
    MemoryBudget::from_bytes(
        budget_overhead_bytes(unknown) + half * budget_per_candidate_bytes(known),
    )
    .map_err(|e| e.to_string())
}

/// Best matches of a batched run as alias pairs.
pub fn batched_pairs(
    engine: &TwoStage,
    ranked: Vec<RankedMatch>,
    known: &Dataset,
    unknown: &Dataset,
) -> Vec<AliasMatch> {
    engine
        .threshold_links(ranked)
        .into_iter()
        .map(|(u, k, score)| AliasMatch {
            known_alias: known.records[k].alias.clone(),
            unknown_alias: unknown.records[u].alias.clone(),
            score,
        })
        .collect()
}

/// `fit_s`, `query_p50_ms` and `query_p95_ms` of a fit-every-time run:
/// each call refits the known pool, and every unknown alias it answers
/// waits for the whole call.
fn call_latency_metrics(out: &mut Outcome, calls_s: &[f64], aliases: usize) {
    let per_alias: Vec<f64> = calls_s
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s * 1e3, aliases))
        .collect();
    out.metric("fit_s", median(calls_s), "s");
    out.metric("query_p50_ms", quantile(&per_alias, 0.50), "ms");
    out.metric("query_p95_ms", quantile(&per_alias, 0.95), "ms");
    out.info("calls", calls_s.len());
    out.info("call_s", format!("{calls_s:.3?}"));
    out.info("latency_samples", per_alias.len());
}

/// Repeats the fit-every-time `call` for `env.seconds` and at least
/// `min_calls` times. Each distinct unknown alias of a call is one
/// operation; it fails when the call errors or panics, or when the
/// alias's answer differs from `reference`. Returns the call times and
/// the first call's pairs.
fn call_loop(
    out: &mut Outcome,
    env: &Env,
    unknown: &Corpus,
    reference: &str,
    min_calls: usize,
    mut call: impl FnMut() -> Result<Vec<AliasMatch>, String>,
) -> (Vec<f64>, Vec<AliasMatch>) {
    let aliases = distinct_aliases(unknown);
    let mut calls_s = Vec::new();
    let mut first = None;
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds || calls_s.len() < min_calls {
        let (result, t) = timed(|| catch_unwind(AssertUnwindSafe(&mut call)));
        calls_s.push(t);
        out.attempted += aliases.len() as u64;
        match result {
            Ok(Ok(pairs)) => {
                let wrong = mismatched(&aliases, &render_pairs(&pairs), reference);
                out.failed += wrong.len() as u64;
                first.get_or_insert(pairs);
            }
            _ => out.failed += aliases.len() as u64,
        }
    }
    out.loop_time(cpu0, started);
    (calls_s, first.unwrap_or_default())
}

/// Runs `setup` [`SETUP_REPS`] times and for at least [`SETUP_MIN_S`];
/// returns the last result and the median time.
fn repeat_setup<R>(mut setup: impl FnMut() -> Result<R, String>) -> Result<(R, f64), String> {
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let (result, t) = timed(&mut setup);
        let result = result?;
        times.push(t);
        if times.len() >= SETUP_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return Ok((result, median(&times)));
        }
    }
}

pub fn serve_single(env: &Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (known, unknown) = env.read_both()?;
    let truth = env.truth()?;
    let linker = env.linker();

    // Fit and publish (fit_s), several times; every fit must publish the
    // same bytes.
    let store = env.store("serve-store")?;
    let mut fit_s = Vec::new();
    let mut artifact = None;
    let mut artifact_bytes: Option<Vec<u8>> = None;
    for _ in 0..FIT_REPS {
        let (fitted, t) = timed(|| {
            let a = linker.fit_artifact(&known);
            a.save(&store).map(|_| a)
        });
        let fitted = fitted.map_err(|e| format!("publish: {e}"))?;
        fit_s.push(t);
        let bytes = fitted.to_container().to_bytes();
        if let Some(first) = &artifact_bytes {
            out.check(
                "fit_repeats_bytes",
                *first == bytes,
                "artifact bytes of repeated fits",
            );
        }
        artifact_bytes.get_or_insert(bytes);
        artifact.get_or_insert(fitted);
    }
    let fitted = artifact.ok_or("no fit ran")?;
    let artifact_len = artifact_bytes.map_or(0, |b| b.len());

    // Reload it (setup_s): read, CRC check, decode, rebuild.
    let (served, setup_s) = repeat_setup(|| {
        FitArtifact::load(&store, env.threads)
            .map(|(a, _epoch)| a)
            .map_err(|e| format!("load: {e}"))
    })?;
    out.check(
        "load_fingerprint",
        served.fingerprint() == fitted.fingerprint(),
        "loaded artifact fingerprint equals the fitted one",
    );

    // The independent reference: one fit-every-time link of the whole
    // unknown corpus (the link-cross answer).
    let reference = env.reference_text()?;

    // Closed loop, one client: each query is one unknown alias's raw
    // posts; cycle through the aliases until the time is up. A repeated
    // query must answer as it did the first time; the first answers,
    // concatenated, must equal the reference.
    let queries = single_alias_queries(&unknown);
    let query_msgs: Vec<usize> = queries.iter().map(Corpus::total_posts).collect();
    let mut latency_ms = Vec::new();
    let mut asked = Vec::new();
    let mut ok = Vec::new();
    let mut first: Vec<Option<String>> = vec![None; queries.len()];
    let mut first_pairs: Vec<AliasMatch> = Vec::new();
    let mut msgs = 0usize;
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < env.seconds || i < MIN_QUERIES.max(queries.len()) {
        let q = i % queries.len();
        let (answer, t) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                linker.link_with_artifact(&served, &queries[q])
            }))
        });
        latency_ms.push(t * 1e3);
        asked.push(q);
        msgs += query_msgs[q];
        ok.push(match answer {
            Ok(pairs) => {
                let answer = render_pairs(&pairs);
                match &first[q] {
                    Some(seen) => *seen == answer,
                    None => {
                        first[q] = Some(answer);
                        first_pairs.extend(pairs);
                        true
                    }
                }
            }
            Err(_) => false,
        });
        i += 1;
    }
    let first_pass: String = first.iter().flatten().map(String::as_str).collect();
    let wrong = mismatched(&distinct_aliases(&unknown), &first_pass, &reference);
    for (ok, &q) in ok.iter_mut().zip(&asked) {
        *ok &= !wrong.contains(queries[q].users[0].alias.as_str());
    }
    out.attempted = ok.len() as u64;
    out.failed = ok.iter().filter(|&&ok| !ok).count() as u64;
    out.check(
        "serve_equals_link",
        first_pass == reference,
        "concatenated single-alias answers equal the fit-every-time link, byte for byte",
    );

    out.loop_time(cpu0, started);
    let serve_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;
    out.metric("setup_s", setup_s, "s");
    out.metric("fit_s", median(&fit_s), "s");
    out.metric("query_p50_ms", quantile(&latency_ms, 0.50), "ms");
    out.metric("query_p95_ms", quantile(&latency_ms, 0.95), "ms");
    out.metric("messages_per_s", msgs as f64 / serve_s, "1/s");
    out.accuracy(&accuracy(&first_pairs, &truth));
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.info("latency_samples", latency_ms.len());
    out.info("latency_beyond_p95", beyond(&latency_ms, 0.95));
    let cut = quantile(&latency_ms, 0.95);
    let distinct: BTreeSet<usize> = latency_ms
        .iter()
        .zip(&asked)
        .filter(|(&t, _)| t > cut)
        .map(|(_, &q)| q)
        .collect();
    out.info("distinct_aliases_beyond_p95", distinct.len());
    out.info("distinct_queries", queries.len());
    out.info("artifact_bytes", artifact_len);
    out.info("answer_digest", digest(&first_pass));
    record_inputs(&mut out, env, &known, &unknown);
    Ok(out)
}

pub fn link_cross(env: &Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let truth = env.truth()?;
    // Corpus ingestion is this workload's set-up.
    let ((known, unknown), setup_s) = repeat_setup(|| env.read_both())?;
    let linker = env.linker();

    // The independent reference: the same link computed stage by stage.
    // (serve-single checks this link against the fit-once/serve-many
    // path, and both record their answers for `repeats.shared_answers`.)
    let reference = env.reference_text()?;
    let (calls_s, pairs) = call_loop(&mut out, env, &unknown, &reference, MIN_CALLS, || {
        linker.try_link(&known, &unknown).map_err(|e| e.to_string())
    });
    out.check(
        "link_equals_stagewise",
        render_pairs(&pairs) == reference,
        "fit-every-time pairs equal the stage-by-stage link, byte for byte",
    );

    let messages = known.total_posts() + unknown.total_posts();
    out.metric("setup_s", setup_s, "s");
    call_latency_metrics(&mut out, &calls_s, distinct_aliases(&unknown).len());
    out.metric("messages_per_s", messages as f64 / median(&calls_s), "1/s");
    out.accuracy(&accuracy(&pairs, &truth));
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.info("answer_digest", digest(&render_pairs(&pairs)));
    record_inputs(&mut out, env, &known, &unknown);
    Ok(out)
}

/// Ingests the pre-polished corpora into datasets, as `prepare_cell`
/// builds them.
pub fn ingest_datasets(env: &Env) -> Result<(Corpus, Corpus, Dataset, Dataset), String> {
    let (known, unknown) = env.read_both()?;
    let builder = DatasetBuilder::new().with_threads(env.threads);
    let known_ds = builder.build(&known);
    let unknown_ds = builder.build(&unknown);
    Ok((known, unknown, known_ds, unknown_ds))
}

pub fn batched_governed(env: &Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let truth = env.truth()?;
    let ((known, unknown, known_ds, unknown_ds), setup_s) = repeat_setup(|| ingest_datasets(env))?;
    let budget = half_pool_budget(&known_ds, &unknown_ds)?;
    let batch = BatchConfig::derive(&budget, &known_ds, &unknown_ds).map_err(|e| e.to_string())?;
    let engine = env.batch_engine(budget);

    // The independent reference: the same batched run on one worker
    // (output does not depend on the thread count).
    let reference = env.reference_text()?;
    let (calls_s, pairs) = call_loop(&mut out, env, &unknown, &reference, 1, || {
        run_batched(&engine, &batch, &known_ds, &unknown_ds)
            .map(|ranked| batched_pairs(&engine, ranked, &known_ds, &unknown_ds))
            .map_err(|e| e.to_string())
    });
    out.check(
        "batched_equals_serial",
        render_pairs(&pairs) == reference,
        "pairs equal those of the same batched run on one worker, byte for byte",
    );

    let messages = known.total_posts() + unknown.total_posts();
    out.metric("setup_s", setup_s, "s");
    call_latency_metrics(&mut out, &calls_s, distinct_aliases(&unknown).len());
    out.metric("messages_per_s", messages as f64 / median(&calls_s), "1/s");
    out.accuracy(&accuracy(&pairs, &truth));
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.info("answer_digest", digest(&render_pairs(&pairs)));
    out.info("batch_size", batch.batch_size);
    out.info("mem_budget_bytes", budget.bytes());
    record_inputs(&mut out, env, &known, &unknown);
    Ok(out)
}

/// One untimed pass of `path` on the world in `env`: the pairs it
/// answers. The traced run compares its stage-by-stage pairs with this
/// pass, and each workload's reference is another workload's pass.
pub fn pass(path: Workload, env: &Env) -> Result<Vec<AliasMatch>, String> {
    let linker = env.linker();
    match path {
        Workload::ServeSingle => {
            let (known, unknown) = env.read_both()?;
            let store = env.store("pass-store")?;
            linker
                .fit_artifact(&known)
                .save(&store)
                .map_err(|e| e.to_string())?;
            let (artifact, _) =
                FitArtifact::load(&store, env.threads).map_err(|e| e.to_string())?;
            Ok(single_alias_queries(&unknown)
                .iter()
                .flat_map(|q| linker.link_with_artifact(&artifact, q))
                .collect())
        }
        Workload::LinkCross => {
            let (known, unknown) = env.read_both()?;
            linker.try_link(&known, &unknown).map_err(|e| e.to_string())
        }
        Workload::BatchedGoverned => {
            let (_, _, known_ds, unknown_ds) = ingest_datasets(env)?;
            let budget = half_pool_budget(&known_ds, &unknown_ds)?;
            let batch =
                BatchConfig::derive(&budget, &known_ds, &unknown_ds).map_err(|e| e.to_string())?;
            let engine = env.batch_engine(budget);
            let ranked =
                run_batched(&engine, &batch, &known_ds, &unknown_ds).map_err(|e| e.to_string())?;
            Ok(batched_pairs(&engine, ranked, &known_ds, &unknown_ds))
        }
    }
}

/// The reference answers of `workload`, in canonical bytes: for
/// `serve-single` the fit-every-time link, for `link-cross` the same link
/// computed stage by stage through each layer's public calls, for
/// `batched-governed` the same batched run on one worker.
pub fn reference(workload: Workload, env: &Env) -> Result<String, String> {
    let pairs = match workload {
        Workload::ServeSingle => pass(Workload::LinkCross, env)?,
        Workload::LinkCross => crate::traced::stagewise_link(env)?,
        Workload::BatchedGoverned => pass(
            Workload::BatchedGoverned,
            &Env {
                threads: 1,
                ..env.clone()
            },
        )?,
    };
    Ok(render_pairs(&pairs))
}

/// FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h = darklight::core::checkpoint::Fnv1a::new();
    h.write(text.as_bytes());
    format!("{:016x}", h.finish())
}
