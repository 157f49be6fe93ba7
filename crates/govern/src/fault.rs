//! Deterministic I/O fault injection (`DARKLIGHT_FAULT_IO`).
//!
//! Mirrors the `DARKLIGHT_FAULT_PANICS` hook in `darklight-par`: the
//! environment variable is parsed once per process, and instrumented
//! I/O call sites ask [`maybe_fail_io`] before touching the filesystem.
//! Where the panic hook fires on a `(site, item index)` pair, the I/O
//! hook is a **countdown**: `DARKLIGHT_FAULT_IO=checkpoint.save:2`
//! makes the first two calls at `checkpoint.save` fail with a synthetic
//! [`std::io::Error`] and every later call succeed — exactly the shape
//! a transient-outage regression test needs (set the count below the
//! retry budget and the run must recover; above it and the run must
//! surface a typed error).
//!
//! Beyond the fail-count mode, two **write-corruption** modes model the
//! crashes a durable store must survive. Both are one-shot (they fire on
//! the first write at the site and never again) and are consumed via
//! [`take_write_fault`] by call sites that buffer their output bytes:
//!
//! * `trunc:<site>:<bytes>` — the write is torn: only the first
//!   `<bytes>` bytes reach the file (a crash mid-`write`).
//! * `flip:<site>:<byte-offset>` — the byte at `<byte-offset>` is
//!   XOR-ed with `0xff` before hitting the disk (a torn sector or
//!   bit-rot that the rename discipline alone cannot catch).
//!
//! Entries of all three modes mix freely in one comma-separated
//! variable: `DARKLIGHT_FAULT_IO=trunc:store.write:64,corpus.read:1`.
//! Injection stays deterministic — the spec is latched once per process
//! and each corruption entry fires exactly once at a fixed call.
//!
//! Sites instrumented today: `checkpoint.save`, `checkpoint.load`
//! (`darklight-core`), `corpus.read` (the CLI ingestion path), and the
//! `store.*` sites of `darklight-store` (`store.write_artifact`,
//! `store.publish_rename`, `store.current_swap`). The write-corruption
//! modes apply at `store.write_artifact`, `store.current_swap` and
//! `checkpoint.save` — every site whose bytes reach disk through the
//! store's one durable-write function.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable holding comma-separated fault entries: either
/// `site:count` (fail-count mode), `trunc:site:bytes`, or
/// `flip:site:byte-offset`.
pub const FAULT_IO_ENV: &str = "DARKLIGHT_FAULT_IO";

/// A one-shot corruption to apply to a buffered write at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Keep only the first `n` bytes of the write (torn write).
    Truncate(usize),
    /// XOR the byte at this offset with `0xff` (bit rot). Offsets past
    /// the end of the buffer leave it untouched.
    FlipByte(usize),
}

impl WriteFault {
    /// Applies this corruption to a byte buffer about to be written.
    pub fn corrupt(self, bytes: &mut Vec<u8>) {
        match self {
            WriteFault::Truncate(n) => bytes.truncate(n),
            WriteFault::FlipByte(off) => {
                if let Some(b) = bytes.get_mut(off) {
                    *b ^= 0xff;
                }
            }
        }
    }
}

struct Slot {
    site: String,
    remaining: AtomicU64,
}

struct CorruptSlot {
    site: String,
    fault: WriteFault,
    armed: AtomicBool,
}

struct Spec {
    counts: Vec<Slot>,
    corruptions: Vec<CorruptSlot>,
}

fn parse_entry(entry: &str, spec: &mut Spec) {
    let entry = entry.trim();
    if let Some(rest) = entry.strip_prefix("trunc:") {
        if let Some((site, bytes)) = rest.rsplit_once(':') {
            if let Ok(n) = bytes.trim().parse::<usize>() {
                spec.corruptions.push(CorruptSlot {
                    site: site.trim().to_string(),
                    fault: WriteFault::Truncate(n),
                    armed: AtomicBool::new(true),
                });
            }
        }
        return;
    }
    if let Some(rest) = entry.strip_prefix("flip:") {
        if let Some((site, off)) = rest.rsplit_once(':') {
            if let Ok(n) = off.trim().parse::<usize>() {
                spec.corruptions.push(CorruptSlot {
                    site: site.trim().to_string(),
                    fault: WriteFault::FlipByte(n),
                    armed: AtomicBool::new(true),
                });
            }
        }
        return;
    }
    if let Some((site, count)) = entry.rsplit_once(':') {
        if let Ok(count) = count.trim().parse::<u64>() {
            spec.counts.push(Slot {
                site: site.trim().to_string(),
                remaining: AtomicU64::new(count),
            });
        }
    }
}

fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let mut spec = Spec {
            counts: Vec::new(),
            corruptions: Vec::new(),
        };
        if let Ok(raw) = std::env::var(FAULT_IO_ENV) {
            for entry in raw.split(',') {
                parse_entry(entry, &mut spec);
            }
        }
        spec
    })
}

/// True when a fault should fire for this call at `site` (consumes one
/// unit of the site's countdown).
pub fn take(site: &str) -> bool {
    for slot in &spec().counts {
        if slot.site == site {
            // Decrement-if-positive: the first `count` calls fault.
            return slot
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
        }
    }
    false
}

/// Takes the one-shot write corruption armed for `site`, if any. The
/// first call at the site consumes it; later calls see `None`, so a
/// retry after the injected corruption writes clean bytes — exactly the
/// "transient torn write" shape a recovery test needs.
pub fn take_write_fault(site: &str) -> Option<WriteFault> {
    for slot in &spec().corruptions {
        if slot.site == site && slot.armed.swap(false, Ordering::Relaxed) {
            return Some(slot.fault);
        }
    }
    None
}

/// Fails with a synthetic, retry-classifiable [`std::io::Error`] while
/// the site's fault countdown is positive.
///
/// # Errors
///
/// An [`std::io::ErrorKind::Interrupted`] error naming the site — the
/// kind every retry classifier treats as transient.
pub fn maybe_fail_io(site: &str) -> std::io::Result<()> {
    if take(site) {
        Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected i/o fault at {site} ({FAULT_IO_ENV})"),
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `spec()` latches the environment once per process, so these tests
    // exercise the parser indirectly: with the variable unset (the
    // normal `cargo test` environment) every site must pass. The
    // count-down behaviour itself is pinned end-to-end by
    // `tests/govern_soak.rs` and the CLI fault tests, which own their
    // process environment.
    #[test]
    fn unset_environment_injects_nothing() {
        assert!(!take("checkpoint.save"));
        assert!(maybe_fail_io("checkpoint.save").is_ok());
        assert!(maybe_fail_io("no.such.site").is_ok());
        assert!(take_write_fault("store.write_artifact").is_none());
    }

    // The parser itself is pure, so it can be pinned directly without
    // touching the process environment.
    #[test]
    fn parser_understands_all_three_modes() {
        let mut spec = Spec {
            counts: Vec::new(),
            corruptions: Vec::new(),
        };
        for entry in "checkpoint.save:2, trunc:store.write_artifact:64 ,flip:store.write_artifact:9"
            .split(',')
        {
            parse_entry(entry, &mut spec);
        }
        assert_eq!(spec.counts.len(), 1);
        assert_eq!(spec.counts[0].site, "checkpoint.save");
        assert_eq!(spec.counts[0].remaining.load(Ordering::Relaxed), 2);
        assert_eq!(spec.corruptions.len(), 2);
        assert_eq!(spec.corruptions[0].site, "store.write_artifact");
        assert_eq!(spec.corruptions[0].fault, WriteFault::Truncate(64));
        assert_eq!(spec.corruptions[1].fault, WriteFault::FlipByte(9));
    }

    #[test]
    fn parser_skips_malformed_entries() {
        let mut spec = Spec {
            counts: Vec::new(),
            corruptions: Vec::new(),
        };
        for entry in "trunc:nobytes,flip:site:notanumber,bare,site:3".split(',') {
            parse_entry(entry, &mut spec);
        }
        assert_eq!(spec.counts.len(), 1);
        assert!(spec.corruptions.is_empty());
    }

    #[test]
    fn corruptions_apply_deterministically() {
        let mut bytes = vec![1u8, 2, 3, 4];
        WriteFault::Truncate(2).corrupt(&mut bytes);
        assert_eq!(bytes, [1, 2]);
        let mut bytes = vec![0u8, 0, 0];
        WriteFault::FlipByte(1).corrupt(&mut bytes);
        assert_eq!(bytes, [0, 0xff, 0]);
        // Past-the-end flip is a no-op, not a panic.
        WriteFault::FlipByte(99).corrupt(&mut bytes);
        assert_eq!(bytes, [0, 0xff, 0]);
    }
}
