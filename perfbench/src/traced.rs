//! The traced run: the per-layer metrics.
//!
//! The run first repeats one pass of the workload untraced (after one
//! warm-up pass), then the same
//! pass with each layer's public functions called one by one inside the
//! benchmark's own spans (the `path` root), and checks that both passes
//! give the same pairs. The difference of the two walls is the tracing
//! overhead. Layers that the workload's path does not call one by one —
//! inside `run_batched`, say, or not at all — are then measured by
//! probes on the same inputs under a separate `probe` root, which the
//! path's wall does not include. Every per-layer metric says in
//! `sources` whether it came from the path or a probe.

use crate::measure::{process_cpu_s, render_pairs, timed};
use crate::trace::Tracer;
use crate::workloads::{
    batched_pairs, half_pool_budget, pass, record_inputs, single_alias_queries, Env, Outcome,
};
use crate::world::{Workload, KNOWN_FILE, MIXED_MAX_UNKNOWNS, UNKNOWN_FILE};
use darklight::activity::profile::{ProfileBuilder, ProfilePolicy};
use darklight::core::artifact::FitArtifact;
use darklight::core::attrib::{CandidateIndex, Ranked};
use darklight::core::batch::{run_batched, BatchConfig};
use darklight::core::dataset::{Dataset, DatasetBuilder};
use darklight::core::linker::AliasMatch;
use darklight::core::twostage::{RankedMatch, TwoStage, TwoStageConfig};
use darklight::corpus::io::load_corpus;
use darklight::corpus::model::Corpus;
use darklight::corpus::polish::{PolishConfig, PolishReport, Polisher};
use darklight::corpus::refine::{refine, RefineConfig};
use darklight::features::pipeline::{CountedDoc, FeatureExtractor, FeatureSpace, PreparedDoc};
use darklight::features::sparse::SparseVector;
use darklight::obs::PipelineMetrics;
use darklight::store::Container;
use darklight::text::langdetect::LanguageDetector;
use darklight::text::lemma::Lemmatizer;
use std::collections::{BTreeMap, HashSet};

pub const PATH: &str = "path";
pub const PROBE: &str = "probe";

/// Spans with a time metric: `<span>_s` is the summed wall of the spans
/// under `path`, or under `probe` when the path has none.
const TIMED_SPANS: [&str; 17] = [
    "corpus.read",
    "corpus.polish",
    "corpus.refine",
    "text.langdetect",
    "features.prepare",
    "features.count",
    "features.vocab_fit",
    "features.vectorize",
    "core.dataset_build",
    "core.index_build",
    "core.stage1_score",
    "core.stage2_rescore",
    "core.batch",
    "core.artifact_encode",
    "core.artifact_decode",
    "store.publish",
    "store.read_verify",
];

/// Spans whose process CPU time is reported.
pub const CPU_SPANS: [&str; 2] = ["corpus.polish", "core.stage2_rescore"];

/// Largest share of the traced path's wall that the benchmark's own glue
/// spans (outside every layer span) may take.
const MAX_GLUE_SHARE: f64 = 0.05;

/// Counts gathered while tracing. Path values are recorded first; a
/// probe only fills what the path left unset.
#[derive(Debug, Default)]
struct Counts {
    values: BTreeMap<&'static str, f64>,
    sources: BTreeMap<&'static str, &'static str>,
}

impl Counts {
    fn set(&mut self, root: &'static str, name: &'static str, value: f64) {
        if root == PATH || !self.values.contains_key(name) {
            self.values.insert(name, value);
            self.sources.insert(name, root);
        }
    }

    fn add(&mut self, root: &'static str, name: &'static str, value: f64) {
        if root == PATH || self.sources.get(name).is_none_or(|s| *s == PROBE) {
            *self.values.entry(name).or_insert(0.0) += value;
            self.sources.insert(name, root);
        }
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

/// The layer calls of `Linker`, one by one, with the linker's own
/// configuration, so a traced pass computes what the untraced one does.
struct Layers {
    threads: usize,
    refine: RefineConfig,
    polisher: Polisher,
    builder: DatasetBuilder,
    engine: TwoStage,
    metrics: PipelineMetrics,
}

impl Layers {
    fn new(env: &Env, metrics: &PipelineMetrics) -> Layers {
        let config = env.linker().config().clone();
        let ts = &config.two_stage;
        let polisher = Polisher::new(config.polish.clone())
            .with_threads(env.threads)
            .with_metrics(metrics.clone());
        let builder = DatasetBuilder::new()
            .with_ngram_orders(
                ts.reduction.max_word_n.max(ts.final_stage.max_word_n),
                ts.reduction.max_char_n.max(ts.final_stage.max_char_n),
            )
            .with_threads(env.threads)
            .with_metrics(metrics.clone());
        Layers {
            threads: env.threads,
            engine: TwoStage::new(ts.clone().with_metrics(metrics.clone())),
            refine: config.refine,
            polisher,
            builder,
            metrics: metrics.clone(),
        }
    }

    fn read(
        &self,
        tr: &mut Tracer,
        c: &mut Counts,
        env: &Env,
        name: &str,
    ) -> Result<Corpus, String> {
        let path = env.inputs.join(name);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        c.add(PATH, "corpus.read_bytes", bytes as f64);
        tr.span("corpus.read", |_| load_corpus(&path))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn polish(
        &self,
        tr: &mut Tracer,
        c: &mut Counts,
        root: &'static str,
        corpus: &Corpus,
    ) -> (Corpus, PolishReport) {
        let (polished, report) = tr.span("corpus.polish", |_| self.polisher.polish(corpus));
        c.add(root, "corpus.polish_msgs_in", corpus.total_posts() as f64);
        c.add(root, "polish.kept", report.kept_messages as f64);
        c.add(
            root,
            "polish.non_english",
            report.non_english_messages as f64,
        );
        (polished, report)
    }

    /// `Linker::prepare`: polish, refine, build.
    fn prepare(
        &self,
        tr: &mut Tracer,
        c: &mut Counts,
        root: &'static str,
        corpus: &Corpus,
    ) -> Dataset {
        let (polished, _) = self.polish(tr, c, root, corpus);
        let refined = tr.span("corpus.refine", |_| {
            refine(
                &polished,
                self.refine,
                &ProfileBuilder::new(ProfilePolicy::default()),
            )
        });
        tr.span("core.dataset_build", |_| self.builder.build(&refined))
    }

    fn vectorize(&self, space: &FeatureSpace, records: &Dataset) -> Vec<SparseVector> {
        darklight::par::par_map(&records.records, self.threads, |_, r| {
            space.vectorize_counted(&r.counted, r.profile.as_ref())
        })
    }

    /// The stage-1 fit of `TwoStage::reduce` / `FitArtifact::fit`.
    fn stage1_fit(
        &self,
        tr: &mut Tracer,
        c: &mut Counts,
        root: &'static str,
        known: &Dataset,
    ) -> (FeatureSpace, Vec<SparseVector>) {
        let space = tr.span("features.vocab_fit", |_| {
            FeatureExtractor::new(self.engine.config().reduction.clone())
                .with_metrics(self.metrics.clone())
                .with_threads(self.threads)
                .fit_counted(known.records.iter().map(|r| &r.counted))
        });
        c.set(root, "features.dim", space.dim() as f64);
        c.set(root, "features.word_vocab", space.word_vocab_len() as f64);
        c.set(root, "features.char_vocab", space.char_vocab_len() as f64);
        let vecs = tr.span("features.vectorize", |_| self.vectorize(&space, known));
        c.add(
            root,
            "features.vector_nnz",
            vecs.iter().map(SparseVector::nnz).sum::<usize>() as f64,
        );
        (space, vecs)
    }

    /// The ranking half of stage 1 (`TwoStage::reduce_prefit`).
    fn stage1_rank(
        &self,
        tr: &mut Tracer,
        c: &mut Counts,
        root: &'static str,
        space: &FeatureSpace,
        known_vecs: &[SparseVector],
        unknown: &Dataset,
    ) -> Vec<Vec<Ranked>> {
        let index = tr.span("core.index_build", |_| {
            CandidateIndex::build_with_metrics(known_vecs, space.dim(), &self.metrics)
        });
        c.add(
            root,
            "core.index_postings",
            known_vecs.iter().map(SparseVector::nnz).sum::<usize>() as f64,
        );
        let queries = tr.span("features.vectorize", |_| self.vectorize(space, unknown));
        c.add(
            root,
            "features.vector_nnz",
            queries.iter().map(SparseVector::nnz).sum::<usize>() as f64,
        );
        let k = self.engine.config().k;
        let ranked = tr.span("core.stage1_score", |_| {
            index.top_k_batch(&queries, k, self.threads)
        });
        // Freeing the index is part of its per-call cost.
        tr.span("core.index_build", |_| drop(index));
        ranked
    }

    fn stage2(
        &self,
        tr: &mut Tracer,
        c: &mut Counts,
        root: &'static str,
        known: &Dataset,
        unknown: &Dataset,
        stage1: Vec<Vec<Ranked>>,
    ) -> Vec<RankedMatch> {
        c.add(
            root,
            "core.stage2_refits",
            stage1.iter().filter(|s| !s.is_empty()).count() as f64,
        );
        c.add(
            root,
            "core.stage2_candidates",
            stage1.iter().map(Vec::len).sum::<usize>() as f64,
        );
        tr.span("core.stage2_rescore", |_| {
            self.engine.rescore(known, unknown, stage1)
        })
    }

    fn threshold(
        &self,
        tr: &mut Tracer,
        known: &Dataset,
        unknown: &Dataset,
        ranked: Vec<RankedMatch>,
    ) -> Vec<AliasMatch> {
        tr.span("core.threshold", |_| {
            batched_pairs(&self.engine, ranked, known, unknown)
        })
    }
}

/// Share of true pairs (both aliases present) whose known alias is among
/// the unknown's stage-1 candidates.
fn stage1_recall(
    c: &mut Counts,
    root: &'static str,
    truth: &HashSet<(String, String)>,
    known: &Dataset,
    unknown: &Dataset,
    stage1: &[Vec<Ranked>],
) {
    for (u, cands) in stage1.iter().enumerate() {
        let ualias = &unknown.records[u].alias;
        for (k, rec) in known.records.iter().enumerate() {
            if truth.contains(&(rec.alias.clone(), ualias.clone())) {
                c.add(root, "recall.eligible", 1.0);
                if cands.iter().any(|r| r.index == k) {
                    c.add(root, "recall.hits", 1.0);
                }
            }
        }
    }
}

/// The `serve-single` path; leaves the artifact as read back from the
/// store in `published`, whose size is measured outside the path.
fn path_serve(
    tr: &mut Tracer,
    c: &mut Counts,
    l: &Layers,
    env: &Env,
    truth: &HashSet<(String, String)>,
    published: &mut Container,
) -> Result<Vec<AliasMatch>, String> {
    let known = l.read(tr, c, env, KNOWN_FILE)?;
    let unknown = l.read(tr, c, env, UNKNOWN_FILE)?;
    let store = env.store("trace-store")?.with_metrics(l.metrics.clone());
    tr.span("fit", |tr| -> Result<(), String> {
        let known_ds = l.prepare(tr, c, PATH, &known);
        let (space, known_vecs) = l.stage1_fit(tr, c, PATH, &known_ds);
        let artifact = FitArtifact {
            known: known_ds,
            space,
            known_vecs,
        };
        let container = tr.span("core.artifact_encode", |_| artifact.to_container());
        tr.span("store.publish", |_| store.publish(&container))
            .map_err(|e| e.to_string())?;
        Ok(())
    })?;
    let (artifact, container) = tr.span("setup", |tr| -> Result<_, String> {
        let (container, _) = tr
            .span("store.read_verify", |_| store.load())
            .map_err(|e| e.to_string())?;
        let artifact = tr
            .span("core.artifact_decode", |_| {
                FitArtifact::from_container(&container, l.threads)
            })
            .map_err(|e| e.to_string())?;
        Ok((artifact, container))
    })?;
    *published = container;
    let mut answers = Vec::new();
    tr.span("serve", |tr| {
        for q in single_alias_queries(&unknown) {
            tr.span("query", |tr| {
                let uds = l.prepare(tr, c, PATH, &q);
                if artifact.known.is_empty() || uds.is_empty() {
                    return;
                }
                let stage1 =
                    l.stage1_rank(tr, c, PATH, &artifact.space, &artifact.known_vecs, &uds);
                stage1_recall(c, PATH, truth, &artifact.known, &uds, &stage1);
                let ranked = l.stage2(tr, c, PATH, &artifact.known, &uds, stage1);
                answers.extend(l.threshold(tr, &artifact.known, &uds, ranked));
            });
        }
    });
    Ok(answers)
}

fn path_cross(
    tr: &mut Tracer,
    c: &mut Counts,
    l: &Layers,
    env: &Env,
    truth: &HashSet<(String, String)>,
) -> Result<(Vec<AliasMatch>, Dataset, Dataset), String> {
    let known = l.read(tr, c, env, KNOWN_FILE)?;
    let unknown = l.read(tr, c, env, UNKNOWN_FILE)?;
    let known_ds = l.prepare(tr, c, PATH, &known);
    let unknown_ds = l.prepare(tr, c, PATH, &unknown);
    let (space, known_vecs) = l.stage1_fit(tr, c, PATH, &known_ds);
    let stage1 = l.stage1_rank(tr, c, PATH, &space, &known_vecs, &unknown_ds);
    stage1_recall(c, PATH, truth, &known_ds, &unknown_ds, &stage1);
    let ranked = l.stage2(tr, c, PATH, &known_ds, &unknown_ds, stage1);
    let pairs = l.threshold(tr, &known_ds, &unknown_ds, ranked);
    Ok((pairs, known_ds, unknown_ds))
}

/// The `link-cross` answer computed stage by stage through each layer's
/// public calls, without tracing: the reference of a `link-cross` run.
pub fn stagewise_link(env: &Env) -> Result<Vec<AliasMatch>, String> {
    let layers = Layers::new(env, &PipelineMetrics::disabled());
    let mut untimed = Tracer::new(String::new(), &[]);
    path_cross(
        &mut untimed,
        &mut Counts::default(),
        &layers,
        env,
        &HashSet::new(),
    )
    .map(|(pairs, _, _)| pairs)
}

/// `run_batched` under the half-pool budget, with its govern counters.
fn batch_call(
    tr: &mut Tracer,
    c: &mut Counts,
    root: &'static str,
    env: &Env,
    known: &Dataset,
    unknown: &Dataset,
) -> Result<(TwoStage, Vec<RankedMatch>), String> {
    let budget = half_pool_budget(known, unknown)?;
    let batch = BatchConfig::derive(&budget, known, unknown).map_err(|e| e.to_string())?;
    let metrics = PipelineMetrics::enabled();
    let engine = TwoStage::new(TwoStageConfig {
        metrics: metrics.clone(),
        ..env.batch_engine(budget).config().clone()
    });
    let ranked = tr
        .span("core.batch", |_| {
            run_batched(&engine, &batch, known, unknown)
        })
        .map_err(|e| e.to_string())?;
    c.set(
        root,
        "core.batch_rounds",
        metrics.counter("batch.rounds").get() as f64,
    );
    c.set(
        root,
        "govern.batch_size",
        metrics.gauge("batch.batch_size").get() as f64,
    );
    c.set(
        root,
        "govern.bytes_estimated",
        metrics.gauge("govern.bytes_estimated").get() as f64,
    );
    c.set(
        root,
        "govern.batch_shrinks",
        metrics.counter("govern.batch_shrinks").get() as f64,
    );
    c.set(
        root,
        "govern.io_retries",
        metrics.counter("govern.io_retries").get() as f64,
    );
    Ok((engine, ranked))
}

fn path_batched(
    tr: &mut Tracer,
    c: &mut Counts,
    l: &Layers,
    env: &Env,
    truth: &HashSet<(String, String)>,
) -> Result<(Vec<AliasMatch>, Dataset, Dataset), String> {
    let known = l.read(tr, c, env, KNOWN_FILE)?;
    let unknown = l.read(tr, c, env, UNKNOWN_FILE)?;
    let builder = DatasetBuilder::new()
        .with_threads(env.threads)
        .with_metrics(l.metrics.clone());
    let known_ds = tr.span("core.dataset_build", |_| builder.build(&known));
    let unknown_ds = tr.span("core.dataset_build", |_| builder.build(&unknown));
    let (engine, ranked) = batch_call(tr, c, PATH, env, &known_ds, &unknown_ds)?;
    let stage1: Vec<Vec<Ranked>> = ranked.iter().map(|m| m.stage1.clone()).collect();
    stage1_recall(c, PATH, truth, &known_ds, &unknown_ds, &stage1);
    let pairs = tr.span("core.threshold", |_| {
        batched_pairs(&engine, ranked, &known_ds, &unknown_ds)
    });
    Ok((pairs, known_ds, unknown_ds))
}

/// Language detection on exactly the messages that reach polish step 7:
/// the output of a polish with `english_only: false`.
fn probe_langdetect(tr: &mut Tracer, c: &mut Counts, env: &Env, corpora: &[&Corpus]) {
    let polisher = Polisher::new(PolishConfig {
        english_only: false,
        ..PolishConfig::default()
    })
    .with_threads(env.threads);
    let detector = LanguageDetector::new();
    let (mut calls, mut rejects) = (0u64, 0u64);
    for corpus in corpora {
        let (reaching, _) = polisher.polish(corpus);
        tr.span("text.langdetect", |_| {
            for post in reaching.users.iter().flat_map(|u| &u.posts) {
                calls += 1;
                if !detector.is_english(&post.text) {
                    rejects += 1;
                }
            }
        });
    }
    c.set(PROBE, "text.langdetect_calls", calls as f64);
    c.set(PROBE, "langdetect.rejects", rejects as f64);
}

/// Document preparation and n-gram counting on each record's text.
fn probe_features(tr: &mut Tracer, c: &mut Counts, datasets: &[&Dataset]) -> bool {
    let lemmatizer = Lemmatizer::new();
    let mut same = true;
    let mut grams = 0usize;
    for ds in datasets {
        let (max_word_n, max_char_n) = ds.ngram_orders();
        let docs: Vec<PreparedDoc> = tr.span("features.prepare", |_| {
            ds.records
                .iter()
                .map(|r| PreparedDoc::prepare(&r.text, Some(&lemmatizer)))
                .collect()
        });
        let counted: Vec<CountedDoc> = tr.span("features.count", |_| {
            docs.iter()
                .map(|d| CountedDoc::from_prepared(d, max_word_n, max_char_n))
                .collect()
        });
        for (doc, rec) in counted.iter().zip(&ds.records) {
            grams += doc.word_counts().len() + doc.char_counts().len();
            same &= *doc == rec.counted;
        }
    }
    c.set(PROBE, "features.distinct_grams", grams as f64);
    same
}

fn probe_artifact(
    tr: &mut Tracer,
    c: &mut Counts,
    l: &Layers,
    env: &Env,
    known: &Dataset,
) -> Result<bool, String> {
    let (space, known_vecs) = l.stage1_fit(tr, c, PROBE, known);
    let artifact = FitArtifact {
        known: known.clone(),
        space,
        known_vecs,
    };
    let store = env.store("probe-store")?;
    let container: Container = tr.span("core.artifact_encode", |_| artifact.to_container());
    c.set(
        PROBE,
        "store.artifact_bytes",
        container.to_bytes().len() as f64,
    );
    tr.span("store.publish", |_| store.publish(&container))
        .map_err(|e| e.to_string())?;
    let (read, _) = tr
        .span("store.read_verify", |_| store.load())
        .map_err(|e| e.to_string())?;
    let decoded = tr
        .span("core.artifact_decode", |_| {
            FitArtifact::from_container(&read, l.threads)
        })
        .map_err(|e| e.to_string())?;
    Ok(decoded.fingerprint() == artifact.fingerprint())
}

pub fn run(workload: Workload, env: &Env, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let truth: HashSet<(String, String)> = env.truth()?.into_iter().collect();
    let metrics = PipelineMetrics::enabled();
    let layers = Layers::new(env, &metrics);
    let mut c = Counts::default();

    // The first pass warms caches and lazy set-up; the second is the
    // untraced wall the traced pass is compared with.
    pass(workload, env)?;
    let (untraced, untraced_s) = timed(|| pass(workload, env));
    let untraced = untraced?;

    let cpu0 = process_cpu_s();
    let mut published = Container::new(0);
    let traced = tr.span(PATH, |tr| -> Result<_, String> {
        Ok(match workload {
            Workload::ServeSingle => (
                path_serve(tr, &mut c, &layers, env, &truth, &mut published)?,
                None,
            ),
            Workload::LinkCross => {
                let (pairs, k, u) = path_cross(tr, &mut c, &layers, env, &truth)?;
                (pairs, Some((k, u)))
            }
            Workload::BatchedGoverned => {
                let (pairs, k, u) = path_batched(tr, &mut c, &layers, env, &truth)?;
                (pairs, Some((k, u)))
            }
        })
    });
    let path_cpu = process_cpu_s() - cpu0;
    let (pairs, datasets) = traced?;
    let path_s = tr.wall_s(PATH, PATH);
    if workload == Workload::ServeSingle {
        c.set(
            PATH,
            "store.artifact_bytes",
            published.to_bytes().len() as f64,
        );
    }
    out.check(
        "traced_equals_untraced",
        render_pairs(&pairs) == render_pairs(&untraced),
        "stage-by-stage pairs equal the untraced pass, byte for byte",
    );
    out.attempted = 1;
    out.failed = u64::from(render_pairs(&pairs) != render_pairs(&untraced));

    // Probes: the layers this workload's path does not call one by one.
    let probe = tr.span(PROBE, |tr| -> Result<(), String> {
        let raw_known = env.read(KNOWN_FILE)?;
        let raw_unknown = env.read(UNKNOWN_FILE)?;
        record_inputs(&mut out, env, &raw_known, &raw_unknown);
        let (known_ds, unknown_ds) = match &datasets {
            Some((k, u)) => (k.clone(), u.clone()),
            // serve-single prepares the unknown side one query at a time;
            // the probes need it whole.
            None => {
                let mut untimed = Tracer::new(String::new(), &[]);
                (
                    layers.prepare(&mut untimed, &mut Counts::default(), PROBE, &raw_known),
                    layers.prepare(&mut untimed, &mut Counts::default(), PROBE, &raw_unknown),
                )
            }
        };
        if workload == Workload::BatchedGoverned {
            for corpus in [&raw_known, &raw_unknown] {
                layers.prepare(tr, &mut c, PROBE, corpus);
            }
            let (space, known_vecs) = layers.stage1_fit(tr, &mut c, PROBE, &known_ds);
            let stage1 = layers.stage1_rank(tr, &mut c, PROBE, &space, &known_vecs, &unknown_ds);
            layers.stage2(tr, &mut c, PROBE, &known_ds, &unknown_ds, stage1);
        } else {
            // As many unknowns as the batched-governed world has: a
            // batched run over every unknown here would outlast the rest
            // of the traced run.
            let (word_n, char_n) = unknown_ds.ngram_orders();
            let few = Dataset::with_orders(
                unknown_ds.name.clone(),
                unknown_ds.records[..unknown_ds.len().min(MIXED_MAX_UNKNOWNS)].to_vec(),
                word_n,
                char_n,
            );
            batch_call(tr, &mut c, PROBE, env, &known_ds, &few)?;
        }
        if workload != Workload::ServeSingle {
            let same = probe_artifact(tr, &mut c, &layers, env, &known_ds)?;
            out.check(
                "probe_artifact_roundtrip",
                same,
                "decoded artifact fingerprint equals the encoded one",
            );
        }
        probe_langdetect(tr, &mut c, env, &[&raw_known, &raw_unknown]);
        let same = probe_features(tr, &mut c, &[&known_ds, &unknown_ds]);
        out.check(
            "probe_counts_equal_records",
            same,
            "re-counted n-grams equal the dataset's",
        );
        Ok(())
    });
    probe?;

    // Reject count of the language probe against the polish report.
    let rejects = c.values.get("langdetect.rejects").copied().unwrap_or(0.0);
    let reported = c.values.get("polish.non_english").copied().unwrap_or(0.0);
    out.check(
        "langdetect_rejects_match_report",
        rejects == reported,
        format!("{rejects} rejects vs PolishReport::non_english_messages {reported}"),
    );

    // Time metrics from the spans.
    let mut sources: BTreeMap<String, &str> = BTreeMap::new();
    for span in TIMED_SPANS {
        let metric = format!("{span}_s");
        let root = if tr.has(PATH, span) { PATH } else { PROBE };
        out.metric(&metric, tr.wall_s(root, span), "s");
        sources.insert(metric, root);
    }
    let cpu_root = |span: &str| if tr.has(PATH, span) { PATH } else { PROBE };
    out.metric(
        "corpus.polish_cpu_s",
        tr.cpu_s(cpu_root("corpus.polish"), "corpus.polish"),
        "s",
    );
    out.metric(
        "core.stage2_cpu_s",
        tr.cpu_s(cpu_root("core.stage2_rescore"), "core.stage2_rescore"),
        "s",
    );

    // Counts.
    let get = |name: &str| c.values.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.metric("corpus.read_bytes", get("corpus.read_bytes"), "bytes");
    out.metric(
        "corpus.polish_msgs_in",
        get("corpus.polish_msgs_in"),
        "count",
    );
    out.metric(
        "corpus.polish_kept_ratio",
        ratio(get("polish.kept"), get("corpus.polish_msgs_in")),
        "ratio",
    );
    out.metric(
        "text.langdetect_calls",
        get("text.langdetect_calls"),
        "count",
    );
    out.metric(
        "text.langdetect_reject_ratio",
        ratio(rejects, get("text.langdetect_calls")),
        "ratio",
    );
    for name in [
        "features.distinct_grams",
        "features.dim",
        "features.word_vocab",
        "features.char_vocab",
        "features.vector_nnz",
        "core.index_postings",
        "core.stage2_refits",
        "core.stage2_candidates",
        "core.batch_rounds",
        "store.artifact_bytes",
        "govern.batch_size",
        "govern.bytes_estimated",
        "govern.batch_shrinks",
        "govern.io_retries",
    ] {
        let unit = if name.ends_with("bytes") || name.ends_with("estimated") {
            "bytes"
        } else {
            "count"
        };
        out.metric(name, get(name), unit);
        if c.has(name) {
            sources.insert(name.to_string(), c.sources[name]);
        }
    }
    out.metric(
        "core.stage1_recall_at_k",
        ratio(get("recall.hits"), get("recall.eligible")),
        "ratio",
    );

    // Parallelism over the traced path, and counts the program exports.
    out.metric(
        "par.utilization",
        ratio(path_cpu, path_s * env.threads as f64),
        "ratio",
    );
    out.metric(
        "par.idle_s",
        (path_s * env.threads as f64 - path_cpu).max(0.0),
        "s",
    );
    out.metric(
        "par.worker_panics",
        metrics.counter("par.worker_panics").get() as f64,
        "count",
    );
    let touched = metrics.histogram("attrib.postings_touched_per_query");
    out.metric(
        "attrib.postings_touched_per_query",
        ratio(touched.sum() as f64, touched.count() as f64),
        "count",
    );

    out.metric("trace.untraced_wall_s", untraced_s, "s");
    out.metric("trace.traced_wall_s", path_s, "s");
    out.metric("trace.overhead_s", path_s - untraced_s, "s");

    for (name, root) in sources {
        out.info(&format!("source.{name}"), root);
    }
    // Self time per span name and per layer (the name's prefix; the
    // benchmark's glue spans such as `fit` or `query` count as `bench`).
    // The glue is what the layer spans leave unexplained: it must stay a
    // small share of the path wall, or the layer times do not account
    // for the workload's time.
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, s) in tr.self_time_by_name(PATH) {
        let layer = name.split_once('.').map_or("bench", |(l, _)| l).to_string();
        *by_layer.entry(layer).or_insert(0.0) += s;
        out.info(&format!("span_self_s.{name}"), format!("{s:.6}"));
    }
    let glue = by_layer.get("bench").copied().unwrap_or(0.0);
    out.check(
        "layers_account_for_wall",
        glue <= MAX_GLUE_SHARE * path_s,
        format!(
            "benchmark glue self time {glue:.6} s of a {path_s:.6} s path (at most {:.0}%)",
            MAX_GLUE_SHARE * 100.0
        ),
    );
    for (layer, s) in by_layer {
        out.info(&format!("self_s.{layer}"), format!("{s:.6}"));
    }
    Ok(out)
}
