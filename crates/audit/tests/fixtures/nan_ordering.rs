//! Fixture: nan-safe-ordering. partial_cmp in this doc comment is not a
//! finding; neither is the raw string below.

fn violation(scores: &mut [f64]) {
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap()); // finding
}

fn negatives() -> &'static str {
    // partial_cmp mentioned in a comment only.
    r#"documentation about partial_cmp in a raw string"#
}

fn discarded_result(a: f64, b: f64) -> bool {
    // Still a finding: there is no suppression syntax.
    a.partial_cmp(&b).is_some()
}
