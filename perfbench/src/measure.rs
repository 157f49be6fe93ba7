//! Clocks, process counters, statistics and the accuracy score shared by
//! every workload.

use darklight::core::linker::AliasMatch;
use darklight::eval::curve::PrCurve;
use darklight::eval::metrics::{precision_recall_at, LabeledScore};
use std::collections::HashSet;
use std::time::Instant;

/// Linux reports process CPU time in clock ticks of this length.
const TICK_S: f64 = 0.01;

/// CPU time (user + system) of this process and all its threads, dead
/// ones included, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * TICK_S
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` and returns its result and wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Number of samples strictly above the `q`-quantile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// The canonical bytes of a pair list: one `known\tunknown\tscore` line
/// per pair, the score in its shortest round-trip form. Two answers are
/// equal exactly when these bytes are.
pub fn render_pairs(pairs: &[AliasMatch]) -> String {
    pairs
        .iter()
        .map(|m| format!("{}\t{}\t{:?}\n", m.known_alias, m.unknown_alias, m.score))
        .collect()
}

/// Accuracy of each unknown's best match against the generator's ground
/// truth, scored as `bench-matrix` scores it: PR-AUC over the best-match
/// scores, and F1 at the §IV-E calibrated threshold (the highest reaching
/// 80% recall, else the best-F1 point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    pub pr_auc: f64,
    pub f1: f64,
    pub threshold: f64,
    pub positives: usize,
}

pub fn accuracy(best: &[AliasMatch], truth: &[(String, String)]) -> Accuracy {
    let true_pairs: HashSet<(&str, &str)> = truth
        .iter()
        .map(|(k, u)| (k.as_str(), u.as_str()))
        .collect();
    let has_partner: HashSet<&str> = truth.iter().map(|(_, u)| u.as_str()).collect();
    let labeled: Vec<LabeledScore> = best
        .iter()
        .map(|m| LabeledScore {
            score: m.score,
            correct: true_pairs.contains(&(m.known_alias.as_str(), m.unknown_alias.as_str())),
            has_truth: has_partner.contains(m.unknown_alias.as_str()),
        })
        .collect();
    let curve = PrCurve::from_labeled(&labeled);
    let threshold = curve
        .threshold_for_recall(0.80)
        .or_else(|| curve.best_f1())
        .map_or(darklight::core::PAPER_THRESHOLD, |p| p.threshold);
    let (precision, recall) = precision_recall_at(&labeled, threshold);
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    Accuracy {
        pr_auc: curve.auc(),
        f1,
        threshold,
        positives: curve.positives(),
    }
}
