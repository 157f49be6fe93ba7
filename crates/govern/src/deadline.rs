//! Cooperative deadlines for long-running stages.
//!
//! A [`Deadline`] is a cheap cloneable token that worker loops poll
//! between items and the batch driver polls between rounds. It never
//! preempts anything: a run that observes expiry abandons the current
//! round's partial work (which was never visible outside the worker) and
//! surfaces a typed error, leaving the last completed round's checkpoint
//! on disk. Because partial work is discarded wholesale, a deadline can
//! change *when* a run stops but never *what bytes* it produces — the
//! thread-parity suite pins this.

use crate::GovernError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Marker error returned by deadline-aware parallel maps: the token
/// expired and the map's partial results were discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired;

impl std::fmt::Display for Expired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline expired")
    }
}

impl std::error::Error for Expired {}

#[derive(Debug)]
enum Inner {
    /// Wall-clock deadline for operators (`--deadline 30m`).
    Timer {
        start: Instant,
        limit: Duration,
        tripped: AtomicBool,
    },
    /// Deterministic round-counted deadline for tests and ops drills:
    /// expires once [`Deadline::tick_round`] has been called `n` times.
    Rounds {
        remaining: AtomicU64,
        tripped: AtomicBool,
    },
}

/// A cooperative cancellation token; see the module docs.
///
/// Clones share state: any clone observing expiry means every clone
/// does. The default token never expires.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    inner: Option<Arc<Inner>>,
}

/// Two deadlines are equal when they are the same shared token (or both
/// the never-expiring default) — a deadline is an identity, not a value.
impl PartialEq for Deadline {
    fn eq(&self, other: &Deadline) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Deadline {
    /// A token that never expires.
    pub fn none() -> Deadline {
        Deadline::default()
    }

    /// A wall-clock deadline `limit` from now.
    pub fn after(limit: Duration) -> Deadline {
        // The clock decides only when a run stops, never what it
        // outputs: expiry discards the round's partial work and resumes
        // from the checkpoint, so the result bytes are clock-independent
        // (pinned by thread_parity).
        #[expect(
            clippy::disallowed_methods,
            reason = "stop-time only, output bytes never depend on the clock"
        )]
        let start = Instant::now();
        Deadline {
            inner: Some(Arc::new(Inner::Timer {
                start,
                limit,
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// A deterministic deadline that expires after `rounds` completed
    /// batch rounds (each round boundary calls [`Deadline::tick_round`]).
    /// Zero expires before the first round.
    pub fn after_rounds(rounds: u64) -> Deadline {
        Deadline {
            inner: Some(Arc::new(Inner::Rounds {
                remaining: AtomicU64::new(rounds),
                tripped: AtomicBool::new(rounds == 0),
            })),
        }
    }

    /// True once the deadline has passed. Sticky: never un-expires.
    ///
    /// For round-counted deadlines this only reads the tripped flag, so
    /// worker threads polling mid-round all see the same answer no
    /// matter how items are divided — expiry can only flip at a round
    /// boundary, which keeps degraded runs thread-count-invariant.
    pub fn is_expired(&self) -> bool {
        match self.inner.as_deref() {
            None => false,
            Some(Inner::Timer {
                start,
                limit,
                tripped,
            }) => {
                if tripped.load(Ordering::Relaxed) {
                    return true;
                }
                // Same invariant as `after`: the clock gates stopping,
                // never output bytes.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "elapsed() gates stopping only; results are discarded wholesale on expiry"
                )]
                let expired = start.elapsed() >= *limit;
                if expired {
                    tripped.store(true, Ordering::Relaxed);
                }
                expired
            }
            Some(Inner::Rounds { tripped, .. }) => tripped.load(Ordering::Relaxed),
        }
    }

    /// Records one completed batch round (round-counted deadlines only;
    /// a no-op for timer and never-expiring tokens).
    pub fn tick_round(&self) {
        if let Some(Inner::Rounds { remaining, tripped }) = self.inner.as_deref() {
            let before = remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(1))
                })
                .unwrap_or(0);
            if before <= 1 {
                tripped.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Returns the typed expiry error when the deadline has passed.
    ///
    /// # Errors
    ///
    /// [`GovernError::DeadlineExpired`] carrying `rounds_done` so the
    /// message can tell the operator how much progress is checkpointed.
    pub fn check(&self, rounds_done: u64) -> Result<(), GovernError> {
        if self.is_expired() {
            Err(GovernError::DeadlineExpired { rounds_done })
        } else {
            Ok(())
        }
    }
}

/// Parses a human-readable duration: a non-negative integer followed by
/// `ms`, `s`, `m`, or `h` (e.g. `30m`, `90s`, `500ms`).
///
/// # Errors
///
/// Rejects missing numbers, unknown units, bare numbers (the unit is
/// mandatory — `30` alone is ambiguous), and overflow.
pub fn parse_duration(input: &str) -> Result<Duration, GovernError> {
    let s = input.trim();
    if s.is_empty() {
        return Err(GovernError::ParseDuration(
            "empty duration; expected e.g. \"30m\" or \"90s\"".to_string(),
        ));
    }
    let digits_end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(s.len(), |(i, _)| i);
    let (digits, unit) = s.split_at(digits_end);
    if digits.is_empty() {
        return Err(GovernError::ParseDuration(format!(
            "{s:?} has no leading number; expected e.g. \"30m\""
        )));
    }
    let value: u64 = digits
        .parse()
        .map_err(|_| GovernError::ParseDuration(format!("{digits:?} overflows a 64-bit count")))?;
    let millis = match unit.trim() {
        "ms" => Some(value),
        "s" => value.checked_mul(1_000),
        "m" => value.checked_mul(60_000),
        "h" => value.checked_mul(3_600_000),
        "" => {
            return Err(GovernError::ParseDuration(format!(
                "{s:?} has no unit; write \"{digits}s\", \"{digits}m\", or \"{digits}h\""
            )));
        }
        other => {
            return Err(GovernError::ParseDuration(format!(
                "unknown unit {other:?} in {s:?}; accepted units: ms, s, m, h"
            )));
        }
    };
    millis
        .map(Duration::from_millis)
        .ok_or_else(|| GovernError::ParseDuration(format!("{s:?} overflows")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_expired());
        d.tick_round();
        assert!(!d.is_expired());
        assert!(d.check(7).is_ok());
    }

    #[test]
    fn round_deadline_trips_exactly_on_schedule() {
        let d = Deadline::after_rounds(2);
        assert!(!d.is_expired());
        d.tick_round();
        assert!(!d.is_expired(), "one round left");
        d.tick_round();
        assert!(d.is_expired(), "budget spent");
        d.tick_round();
        assert!(d.is_expired(), "expiry is sticky");
        let err = d.check(2).unwrap_err();
        assert!(matches!(
            err,
            GovernError::DeadlineExpired { rounds_done: 2 }
        ));
    }

    #[test]
    fn zero_round_deadline_is_born_expired() {
        assert!(Deadline::after_rounds(0).is_expired());
    }

    #[test]
    fn clones_share_expiry() {
        let d = Deadline::after_rounds(1);
        let clone = d.clone();
        d.tick_round();
        assert!(clone.is_expired());
        assert_eq!(d, clone);
        assert_ne!(d, Deadline::after_rounds(1));
        assert_eq!(Deadline::none(), Deadline::none());
    }

    #[test]
    fn timer_deadline_expires_and_sticks() {
        let d = Deadline::after(Duration::from_millis(0));
        assert!(d.is_expired());
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.is_expired());
    }

    #[test]
    fn durations_parse_and_reject() {
        assert_eq!(parse_duration("30m").unwrap(), Duration::from_secs(1800));
        assert_eq!(parse_duration("90s").unwrap(), Duration::from_secs(90));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2h").unwrap(), Duration::from_secs(7200));
        assert!(parse_duration("30").is_err(), "unit is mandatory");
        assert!(parse_duration("m").is_err());
        assert!(parse_duration("30 parsecs").is_err());
        assert!(parse_duration("").is_err());
        assert!(parse_duration("99999999999999999999h").is_err());
    }
}
