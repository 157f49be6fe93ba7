//! Fixture: metric-name-registry.

fn violations(m: &darklight_obs::PipelineMetrics, name: &str) {
    m.counter("linker.lnik").incr(); // finding: typo, not registered
    m.counter(name).incr(); // finding: dynamic name
}

fn negatives(m: &darklight_obs::PipelineMetrics) {
    m.counter("linker.link").incr(); // registered
    m.timer("twostage.total").record_ns(1); // registered
    let _doc = r#"counter("made.up.name") in a string is fine"#;
}

fn formatted_family(m: &darklight_obs::PipelineMetrics, suffix: &str) {
    // Still a finding, even for a closed family: record it through a
    // `match` with one literal per arm instead.
    m.counter(&format!("ingest.quarantined.{suffix}")).incr();
}
