//! Deliberate violations of the workspace's clippy policy. Every item
//! here must produce a finding; none may be fixed.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Instant, SystemTime};

/// `clippy::unwrap_used` and `clippy::expect_used`.
pub fn naked(x: Option<u32>, y: Result<u32, ()>) -> u32 {
    x.unwrap() + y.expect("boom")
}

/// `clippy::disallowed_methods`: ambient clock reads.
pub fn ambient(start: Instant) -> bool {
    let _now = Instant::now();
    let _wall = SystemTime::now();
    start.elapsed().as_nanos() > 0
}

/// `clippy::disallowed_methods`: raw threads outside darklight-par.
pub fn spawn() {
    let h = std::thread::spawn(|| 1 + 1);
    let _ = h.join();
    std::thread::scope(|_s| {});
    let _ = std::thread::Builder::new().spawn(|| {});
}

/// `clippy::allow_attributes` and
/// `clippy::allow_attributes_without_reason`: an `allow` with no
/// reason, written through `cfg_attr` so that it is still caught.
#[cfg_attr(all(), allow(clippy::unwrap_used))]
pub fn reasonless(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// `unfulfilled_lint_expectations`: nothing below unwraps, so the
/// expectation is stale.
#[expect(clippy::unwrap_used, reason = "stale by construction")]
pub fn tidy(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
