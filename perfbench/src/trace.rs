//! In-memory spans recorded by the benchmark around its calls into each
//! layer, exported as Chrome trace-event JSON (opens in Perfetto and
//! `chrome://tracing`).
//!
//! Spans nest by call order on one thread: a span opened while another is
//! open becomes its child. A layer's self time is its span's duration
//! minus the time its child spans cover.

use crate::measure::process_cpu_s;
use darklight::obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU seconds (all threads) at the span's start and end;
    /// both 0 unless the span's name is one the tracer samples CPU for.
    pub cpu_start: f64,
    pub cpu_end: f64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run_id: String,
    /// Span names whose CPU time is sampled. Sampling reads `/proc`, so
    /// it is kept off the spans that do not need it: its cost lands in
    /// the parent span's self time.
    cpu_spans: &'static [&'static str],
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String, cpu_spans: &'static [&'static str]) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run_id,
            cpu_spans,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn cpu_now(&self, name: &str) -> f64 {
        if self.cpu_spans.contains(&name) {
            process_cpu_s()
        } else {
            0.0
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_start: self.cpu_now(name),
            cpu_end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].cpu_end = self.cpu_now(name);
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn duration_ns(span: &Span) -> u64 {
        span.end_ns - span.start_ns
    }

    /// Self time of every span, in span order.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += Tracer::duration_ns(span);
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| Tracer::duration_ns(s).saturating_sub(c))
            .collect()
    }

    fn under<'a>(&'a self, root: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(i, s)| s.name == name && self.root_name(*i) == root)
            .map(|(_, s)| s)
    }

    /// Summed wall time of the spans named `name` under the root span
    /// `root`, in seconds.
    pub fn wall_s(&self, root: &str, name: &str) -> f64 {
        self.under(root, name)
            .map(|s| Tracer::duration_ns(s) as f64 / 1e9)
            .sum()
    }

    /// Summed process CPU time during the spans named `name` under the
    /// root span `root`, in seconds.
    pub fn cpu_s(&self, root: &str, name: &str) -> f64 {
        self.under(root, name)
            .map(|s| s.cpu_end - s.cpu_start)
            .sum()
    }

    /// Whether any span named `name` was recorded under `root`.
    pub fn has(&self, root: &str, name: &str) -> bool {
        self.under(root, name).next().is_some()
    }

    /// Self time summed per span name under the root span `root`, in
    /// seconds; the values add up to the root's duration.
    pub fn self_time_by_name(&self, root: &str) -> BTreeMap<String, f64> {
        let self_ns = self.self_ns();
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if self.root_name(i) == root {
                *out.entry(span.name.clone()).or_insert(0.0) += self_ns[i] as f64 / 1e9;
            }
        }
        out
    }

    fn root_name(&self, mut i: usize) -> &str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        &self.spans[i].name
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, timestamps in microseconds, with the span's parent and
    /// self time in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let self_ns = self.self_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::object();
                args.set("run_id", Json::Str(self.run_id.clone()));
                args.set("span_id", Json::UInt(i as u64));
                args.set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                );
                args.set("self_us", Json::Float(self_ns[i] as f64 / 1e3));
                let mut e = Json::object();
                e.set("name", Json::Str(s.name.clone()));
                e.set("cat", Json::Str("perfbench".to_string()));
                e.set("ph", Json::Str("X".to_string()));
                e.set("ts", Json::Float(s.start_ns as f64 / 1e3));
                e.set("dur", Json::Float(Tracer::duration_ns(s) as f64 / 1e3));
                e.set("pid", Json::UInt(1));
                e.set("tid", Json::UInt(1));
                e.set("args", args);
                e
            })
            .collect();
        let mut root = Json::object();
        root.set("traceEvents", Json::Array(events));
        root.set("displayTimeUnit", Json::Str("ms".to_string()));
        root
    }
}
