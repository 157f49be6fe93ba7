//! `repro` — regenerates every table and figure of the paper on the
//! synthetic world.
//!
//! ```text
//! repro [experiment...] [--metrics <path>] [--threads N] [--mem-budget SIZE]
//!   experiments: table1 table2 table3 table4 table5 table6
//!                fig1 fig2 fig3 fig4 fig5
//!                darkweb batch results-dark results-open john-doe
//!                all   (default)
//! Environment:
//!   DARKLIGHT_SCALE=small|default|paper   scenario scale
//!   DARKLIGHT_OUT=<dir>                   write per-experiment .md files
//!   DARKLIGHT_THREADS=N                   worker-pool override (0/unset = auto)
//! ```
//!
//! `--mem-budget` (binary units, e.g. `512MiB`) runs the timed DarkWeb
//! links under the resource governor: the batch size is derived from the
//! budget instead of the paper's default B=100, and the derived size plus
//! any pressure-ladder shrinks land in `BENCH_repro.json`.
//!
//! Every run also times the batched DarkWeb link twice — once serially
//! (threads = 1) and once on the configured worker pool — and writes
//! `BENCH_repro.json` (into `DARKLIGHT_OUT` or the working directory):
//! wall-clock per phase, before/after messages-per-second, the resulting
//! parallel speedup, and peak candidate-set sizes. `--metrics <path>`
//! additionally dumps the full darklight-obs registry snapshot of the
//! parallel run. `--threads N` sets the pool explicitly (0 = auto).

use darklight_bench::experiments as exp;
use darklight_bench::{prepare_world, scale_from_env};
use darklight_core::batch::{run_batched, BatchConfig};
use darklight_core::twostage::{TwoStage, TwoStageConfig};
use darklight_govern::{GovernConfig, MemoryBudget};
use darklight_obs::{Json, PipelineMetrics};
use std::io::Write as _;
use std::time::Instant;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "darkweb",
    "batch",
    "results-dark",
    "results-open",
    "john-doe",
    "ablate-k",
    "ablate-activity",
    "ablate-features",
    "ablate-lemma",
    "ablate-batch",
    "defence-obfuscation",
    "ranks",
    "explain",
    "figures",
    "scale-trend",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = args.iter().position(|a| a == "--metrics").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--metrics requires a path");
            std::process::exit(2);
        }
        let path = args.remove(i + 1);
        args.remove(i);
        path
    });
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--threads requires a count (0 = auto)");
                std::process::exit(2);
            }
            let value = args.remove(i + 1);
            args.remove(i);
            value.parse().unwrap_or_else(|_| {
                eprintln!("--threads must be an integer, got {value:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let mem_budget: Option<MemoryBudget> = args.iter().position(|a| a == "--mem-budget").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--mem-budget requires a size (e.g. 512MiB)");
            std::process::exit(2);
        }
        let value = args.remove(i + 1);
        args.remove(i);
        MemoryBudget::parse(&value).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    });
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for w in &wanted {
        if !ALL.contains(w) {
            eprintln!("unknown experiment {w:?}; known: {ALL:?}");
            std::process::exit(2);
        }
    }

    let mut phases: Vec<(String, f64)> = Vec::new();
    let config = scale_from_env();
    eprintln!(
        "generating world (reddit {} / tmg {} / dm {} rich users)...",
        config.reddit_users, config.tmg_users, config.dm_users
    );
    let t0 = Instant::now();
    let world = prepare_world(&config);
    phases.push(("world_prep".to_string(), t0.elapsed().as_secs_f64()));
    eprintln!(
        "world ready in {:.1}s: reddit {} originals / {} alter-egos; tmg {}/{}; dm {}/{}",
        t0.elapsed().as_secs_f64(),
        world.reddit.originals.len(),
        world.reddit.alter_egos.len(),
        world.tmg.originals.len(),
        world.tmg.alter_egos.len(),
        world.dm.originals.len(),
        world.dm.alter_egos.len(),
    );
    // Grab the instrumented-link inputs before `Ctx` takes the world.
    let (dw_known, dw_unknown) = world.darkweb();
    let messages = world.tmg.originals_corpus.total_posts()
        + world.tmg.alter_egos_corpus.total_posts()
        + world.dm.originals_corpus.total_posts()
        + world.dm.alter_egos_corpus.total_posts();
    let ctx = exp::Ctx::new(world);
    let out_dir = std::env::var("DARKLIGHT_OUT").ok();
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for name in wanted {
        let t = Instant::now();
        let body = match name {
            "table1" => exp::table1(&ctx),
            "table2" => exp::table2(&ctx),
            "table3" => exp::table3(&ctx),
            "table4" => exp::table4(&ctx),
            "table5" => exp::table5(&ctx),
            "table6" => exp::table6(&ctx),
            "fig1" => exp::fig1(&ctx),
            "fig2" => exp::fig2(&ctx),
            "fig3" => exp::fig3(&ctx, 300),
            "fig4" => exp::fig4(&ctx),
            "fig5" => exp::fig5(&ctx),
            "darkweb" => exp::darkweb_accuracy(&ctx),
            "batch" => exp::batch_experiment(&ctx, 100),
            "results-dark" => exp::results_dark(&ctx),
            "results-open" => exp::results_open(&ctx),
            "john-doe" => exp::john_doe(&ctx),
            "ablate-k" => darklight_bench::ablations::k_sweep(&ctx),
            "ablate-activity" => darklight_bench::ablations::activity_weight_sweep(&ctx),
            "ablate-features" => darklight_bench::ablations::feature_family_ablation(&ctx),
            "ablate-lemma" => darklight_bench::ablations::lemmatization_ablation(&ctx),
            "ablate-batch" => darklight_bench::ablations::batch_size_sweep(&ctx),
            "defence-obfuscation" => darklight_bench::ablations::obfuscation_defence(&ctx),
            "ranks" => exp::rank_histogram(&ctx),
            "explain" => exp::explain_best_match(&ctx),
            "scale-trend" => exp::scale_trend(200),
            "figures" => {
                let dir = out_dir.clone().unwrap_or_else(|| "results".to_string());
                exp::render_figures(&ctx, std::path::Path::new(&dir))
            }
            _ => unreachable!("validated above"),
        };
        println!("{body}");
        let elapsed = t.elapsed().as_secs_f64();
        phases.push((name.to_string(), elapsed));
        eprintln!("[{name} done in {elapsed:.1}s]");
        if let Some(dir) = &out_dir {
            let path = std::path::Path::new(dir).join(format!("{name}.md"));
            let mut f = std::fs::File::create(&path).expect("create experiment file");
            f.write_all(body.as_bytes()).expect("write experiment file");
        }
    }

    // The batched DarkWeb link runs twice: a serial baseline (threads = 1,
    // no instrumentation) and then the instrumented run on the configured
    // worker pool. Their wall-clocks give the before/after throughput and
    // speedup in BENCH_repro.json. Metrics never change attribution
    // output, and neither does the thread count (pinned by
    // `tests/thread_parity.rs`), so both runs score identically.
    let resolved_threads = darklight_par::resolve_threads(threads);
    // Under a memory budget the batch size is derived from it (and the
    // governor watches the instrumented run); both timed runs use the
    // same batch config so the serial/parallel comparison stays fair.
    let batch = match &mem_budget {
        Some(budget) => BatchConfig::derive(budget, &dw_known, &dw_unknown).unwrap_or_else(|e| {
            eprintln!("--mem-budget infeasible for this world: {e}");
            std::process::exit(2);
        }),
        None => BatchConfig::default(),
    };
    let serial_engine = TwoStage::new(TwoStageConfig {
        threads: 1,
        ..TwoStageConfig::default()
    });
    let t_serial = Instant::now();
    let serial_ranked =
        run_batched(&serial_engine, &batch, &dw_known, &dw_unknown).expect("valid batch config");
    let serial_s = t_serial.elapsed().as_secs_f64();
    phases.push(("serial_link".to_string(), serial_s));
    eprintln!(
        "[serial darkweb link done in {serial_s:.1}s: {} unknowns, 1 thread]",
        serial_ranked.len()
    );
    let metrics = PipelineMetrics::enabled();
    let engine = TwoStage::new(TwoStageConfig {
        metrics: metrics.clone(),
        threads: resolved_threads,
        govern: GovernConfig {
            budget: mem_budget,
            ..GovernConfig::default()
        },
        ..TwoStageConfig::default()
    });
    let t_link = Instant::now();
    let ranked = run_batched(&engine, &batch, &dw_known, &dw_unknown).expect("valid batch config");
    let link_s = t_link.elapsed().as_secs_f64();
    phases.push(("instrumented_link".to_string(), link_s));
    // `run_batched` stops before thresholding (that is `TwoStage::link`),
    // so apply the acceptance rule here for the report.
    let threshold = engine.config().threshold;
    let accepted = ranked
        .iter()
        .filter(|m| m.best().is_some_and(|r| r.score >= threshold))
        .count();
    eprintln!(
        "[instrumented darkweb link done in {link_s:.1}s: {} unknowns, {} messages, \
         {resolved_threads} thread(s), {:.2}x vs serial]",
        ranked.len(),
        messages,
        if link_s > 0.0 { serial_s / link_s } else { 0.0 },
    );

    let bench_path = out_dir
        .as_deref()
        .map(|d| std::path::Path::new(d).join("BENCH_repro.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_repro.json"));
    let report = bench_report(
        &phases,
        messages,
        serial_s,
        link_s,
        resolved_threads,
        accepted,
        ranked.len() - accepted,
        &metrics,
        batch.batch_size,
        mem_budget,
    );
    if let Err(err) = std::fs::write(&bench_path, report) {
        eprintln!(
            "error: cannot write benchmark report {}: {err}",
            bench_path.display()
        );
        std::process::exit(1);
    }
    eprintln!("benchmark report written to {}", bench_path.display());

    if let Some(path) = metrics_path {
        if let Err(err) = std::fs::write(&path, metrics.to_json_pretty()) {
            eprintln!("error: cannot write metrics snapshot {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("pipeline metrics written to {path}");
    }
}

/// Renders the benchmark summary: wall-clock per phase, serial vs
/// parallel link throughput (and their ratio), peak candidate-set sizes
/// from the batched pipeline, and — under `--mem-budget` — the derived
/// batch size plus governor telemetry.
#[expect(
    clippy::too_many_arguments,
    reason = "one report line per measured phase; a struct would only rename them"
)]
fn bench_report(
    phases: &[(String, f64)],
    messages: usize,
    serial_s: f64,
    link_s: f64,
    threads: usize,
    accepted: usize,
    rejected: usize,
    metrics: &PipelineMetrics,
    batch_size: usize,
    mem_budget: Option<MemoryBudget>,
) -> String {
    let mut phase_obj = Json::object();
    for (name, seconds) in phases {
        phase_obj.set(name, Json::Float(*seconds));
    }
    let pools = metrics.histogram("batch.final_pool_size");
    let mut link = Json::object();
    link.set("messages", Json::UInt(messages as u64));
    link.set("threads", Json::UInt(threads as u64));
    link.set(
        "messages_per_sec_serial",
        Json::Float(if serial_s > 0.0 {
            messages as f64 / serial_s
        } else {
            0.0
        }),
    );
    link.set(
        "messages_per_sec",
        Json::Float(if link_s > 0.0 {
            messages as f64 / link_s
        } else {
            0.0
        }),
    );
    link.set(
        "speedup",
        Json::Float(if link_s > 0.0 { serial_s / link_s } else { 0.0 }),
    );
    link.set(
        "stage1_ns",
        Json::UInt(metrics.timer("twostage.stage1").total_ns()),
    );
    link.set(
        "stage2_ns",
        Json::UInt(metrics.timer("twostage.stage2").total_ns()),
    );
    link.set(
        "peak_candidate_pool",
        Json::Int(metrics.gauge("batch.peak_pool").get()),
    );
    link.set(
        "final_pool_p50",
        Json::UInt(pools.quantile_lower_bound(0.50)),
    );
    link.set(
        "final_pool_p99",
        Json::UInt(pools.quantile_lower_bound(0.99)),
    );
    link.set("links_accepted", Json::UInt(accepted as u64));
    link.set("links_rejected", Json::UInt(rejected as u64));
    link.set("batch_size", Json::UInt(batch_size as u64));
    if let Some(budget) = mem_budget {
        link.set("mem_budget_bytes", Json::UInt(budget.bytes()));
        link.set(
            "bytes_estimated",
            Json::Int(metrics.gauge("govern.bytes_estimated").get()),
        );
        link.set(
            "batch_shrinks",
            Json::UInt(metrics.counter("govern.batch_shrinks").get()),
        );
    }
    let mut root = Json::object();
    root.set("phases_s", phase_obj);
    root.set("instrumented_link", link);
    root.render_pretty()
}
