//! Deterministic jittered-backoff retries for transient I/O.
//!
//! Long batch runs die disproportionately to *transient* failures — an
//! NFS hiccup during a checkpoint save, a corpus file briefly locked by
//! a log shipper. [`with_retry`] wraps such call sites: transient errors
//! are retried a bounded number of times with exponential backoff, and
//! anything else (or exhaustion) propagates unchanged so callers keep
//! their typed error taxonomy.
//!
//! The backoff jitter is derived purely from `(seed, site, attempt)`
//! with a SplitMix64 mix — no ambient RNG — so a retried run sleeps the
//! exact same schedule every time. Callers pass the run fingerprint as
//! the seed, which keeps the whole failure model reproducible.

use crate::Fnv1a;
use darklight_obs::PipelineMetrics;
use std::time::Duration;

/// Backoff policy for [`with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (so `3` means up to 4 tries).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay_ms: u64,
    /// Upper clamp on any single delay, pre-jitter.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay_ms: 10,
            max_delay_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-governor behaviour).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// Total attempts this policy implies (initial try + retries), for
    /// error messages.
    pub fn attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// The delay before retry number `attempt` (0-based) at `site`:
    /// exponential in `attempt`, clamped to `max_delay_ms`, then jittered
    /// to 50–100% of that value using only `(seed, site, attempt)`.
    pub fn delay(&self, site: &str, seed: u64, attempt: u32) -> Duration {
        if self.base_delay_ms == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_ms.max(self.base_delay_ms));
        let jitter = splitmix64(seed ^ seed_from(site.as_bytes()) ^ u64::from(attempt));
        // Map the mix onto [exp/2, exp]: full-range jitter desynchronizes
        // concurrent retries without ever collapsing the wait to zero.
        let half = exp / 2;
        Duration::from_millis(half + jitter % (exp - half + 1))
    }
}

/// Derives a deterministic retry seed from arbitrary bytes (FNV-1a).
/// Call sites without a run fingerprint — e.g. corpus reads keyed only
/// by path — use this so their jitter schedule is still reproducible.
pub fn seed_from(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// SplitMix64 finalizer — a tiny, well-mixed pure function of its input.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs `op`, retrying transient failures per `policy`.
///
/// `classify` decides whether an error is transient (retryable); errors
/// it rejects propagate immediately, preserving fail-fast semantics for
/// corruption-class failures (a malformed checkpoint will never succeed
/// on retry, a timed-out NFS write might). Each performed retry
/// increments the `govern.io_retries` counter. The final error after
/// exhaustion is returned unchanged so callers keep their error type;
/// use [`crate::GovernError::IoExhausted`] at the edge if a govern-typed
/// error is wanted.
///
/// # Errors
///
/// The last error from `op` once retries are exhausted, or the first
/// non-transient error.
pub fn with_retry<T, E>(
    site: &str,
    policy: &RetryPolicy,
    seed: u64,
    metrics: &PipelineMetrics,
    classify: impl Fn(&E) -> bool,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.max_retries && classify(&e) => {
                metrics.counter("govern.io_retries").incr();
                let delay = policy.delay(site, seed, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn metrics() -> PipelineMetrics {
        PipelineMetrics::enabled()
    }

    #[test]
    fn first_success_needs_no_retry() {
        let m = metrics();
        let out: Result<i32, String> =
            with_retry("t.ok", &RetryPolicy::default(), 7, &m, |_| true, || Ok(42));
        assert_eq!(out.unwrap(), 42);
        assert_eq!(m.counter("govern.io_retries").get(), 0);
    }

    #[test]
    fn transient_failures_below_budget_recover() {
        let m = metrics();
        let calls = Cell::new(0u32);
        let fast = RetryPolicy {
            base_delay_ms: 0,
            ..RetryPolicy::default()
        };
        let out: Result<&str, String> = with_retry(
            "t.flaky",
            &fast,
            7,
            &m,
            |_| true,
            || {
                calls.set(calls.get() + 1);
                if calls.get() <= 2 {
                    Err("transient".to_string())
                } else {
                    Ok("recovered")
                }
            },
        );
        assert_eq!(out.unwrap(), "recovered");
        assert_eq!(calls.get(), 3);
        assert_eq!(m.counter("govern.io_retries").get(), 2);
    }

    #[test]
    fn exhaustion_returns_the_last_error() {
        let m = metrics();
        let fast = RetryPolicy {
            max_retries: 2,
            base_delay_ms: 0,
            max_delay_ms: 0,
        };
        let calls = Cell::new(0u32);
        let out: Result<(), String> = with_retry(
            "t.dead",
            &fast,
            7,
            &m,
            |_| true,
            || {
                calls.set(calls.get() + 1);
                Err(format!("fail #{}", calls.get()))
            },
        );
        assert_eq!(out.unwrap_err(), "fail #3");
        assert_eq!(calls.get(), 3, "1 try + 2 retries");
        assert_eq!(m.counter("govern.io_retries").get(), 2);
        assert_eq!(fast.attempts(), 3);
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let m = metrics();
        let calls = Cell::new(0u32);
        let out: Result<(), &str> = with_retry(
            "t.fatal",
            &RetryPolicy::default(),
            7,
            &m,
            |_| false,
            || {
                calls.set(calls.get() + 1);
                Err("corrupt")
            },
        );
        assert_eq!(out.unwrap_err(), "corrupt");
        assert_eq!(calls.get(), 1);
        assert_eq!(m.counter("govern.io_retries").get(), 0);
    }

    #[test]
    fn delays_are_deterministic_in_seed_site_attempt() {
        let p = RetryPolicy::default();
        for attempt in 0..4 {
            assert_eq!(
                p.delay("checkpoint.save", 99, attempt),
                p.delay("checkpoint.save", 99, attempt)
            );
        }
        // Different sites and seeds jitter differently (with these
        // constants; not a universal guarantee, just a sanity probe).
        assert_ne!(
            p.delay("checkpoint.save", 99, 1),
            p.delay("corpus.read", 99, 1)
        );
        let d = p.delay("s", 1, 0);
        assert!(d >= Duration::from_millis(5) && d <= Duration::from_millis(10));
        assert_eq!(RetryPolicy::none().delay("s", 1, 0), Duration::ZERO);
    }

    #[test]
    fn jitter_schedule_is_pinned() {
        // A changed schedule would make retried runs sleep differently
        // across versions; the seed is the plain FNV-1a digest.
        assert_eq!(seed_from(b"darklight"), 0xf350_767a_c37e_d7cf);
        let p = RetryPolicy::default();
        let ms = |site: &str, seed: u64| -> Vec<u128> {
            (0..6).map(|a| p.delay(site, seed, a).as_millis()).collect()
        };
        assert_eq!(
            ms("checkpoint.save", 0xdead_beef),
            [5, 16, 21, 54, 112, 178]
        );
        assert_eq!(ms("corpus.read", 7), [6, 16, 25, 46, 157, 133]);
    }
}
