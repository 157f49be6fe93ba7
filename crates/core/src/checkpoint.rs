//! Batch-attribution checkpoints (crash recovery for §IV-J runs).
//!
//! `run_batched` exists for resource-constrained hardware, which is
//! exactly where attribution runs take hours and interruptions are
//! routine; without a checkpoint, a crash in round 7 forfeits rounds
//! 1–6. This module persists the inter-round state — the per-unknown
//! survivor pools plus the number of completed rounds — after every
//! round, and loads it back on resume.
//!
//! A checkpoint is a `darklight-store` [`Container`]: the run
//! fingerprint sits in the CRC-checked header, and two sections hold the
//! completed-round count (`batch.rounds`) and the survivor pools
//! (`batch.pools`). It is written through the store's one durable-write
//! path, so a crash mid-write leaves the previous checkpoint intact, and
//! a torn or bit-rotted file fails its CRCs on load as a typed
//! [`StoreError`] instead of resuming with a changed candidate pool.
//!
//! A checkpoint is only as good as the run it belongs to: resuming round
//! 7's pools against a different corpus or a different `k` would produce
//! confidently wrong rankings. Every checkpoint therefore embeds a
//! **fingerprint** — an FNV-1a hash over the attribution configuration
//! and both datasets' contents — and [`load`] callers refuse to resume
//! when the fingerprint of the current run does not match (see
//! `run_batched_governed`).

/// The fingerprint hasher, re-exported from `darklight-govern` where the
/// workspace's one FNV-1a lives.
pub use darklight_govern::Fnv1a;

use darklight_govern::{fault, with_retry, RetryPolicy};
use darklight_obs::PipelineMetrics;
use darklight_store::codec::{Reader, Writer};
use darklight_store::{read_container, write_durable, Container, FaultSites, StoreError};
use std::path::Path;

/// Fault-injection site for checkpoint writes (count mode before the
/// write, `trunc:`/`flip:` corruption of the written bytes).
const SITE_SAVE: &str = "checkpoint.save";

/// Fault-injection site for checkpoint reads.
const SITE_LOAD: &str = "checkpoint.load";

/// Section holding the completed-round count.
const SEC_ROUNDS: &str = "batch.rounds";

/// Section holding the per-unknown survivor pools.
const SEC_POOLS: &str = "batch.pools";

/// The persisted inter-round state of a batched attribution run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Hash of the run configuration + dataset contents (see
    /// [`Fnv1a`]); resuming requires an exact match.
    pub fingerprint: u64,
    /// Rounds completed when this checkpoint was written.
    pub rounds_done: u64,
    /// Per-unknown surviving candidate indices into the known dataset.
    pub survivors: Vec<Vec<usize>>,
}

impl Checkpoint {
    fn to_container(&self) -> Container {
        let mut c = Container::new(self.fingerprint);
        let mut rounds = Writer::new();
        rounds.put_u64(self.rounds_done);
        c.push_section(SEC_ROUNDS, rounds.into_bytes());
        let mut pools = Writer::new();
        pools.put_u64(self.survivors.len() as u64);
        for pool in &self.survivors {
            pools.put_u64(pool.len() as u64);
            for &i in pool {
                pools.put_u64(i as u64);
            }
        }
        c.push_section(SEC_POOLS, pools.into_bytes());
        c
    }

    fn from_container(c: &Container) -> Result<Checkpoint, StoreError> {
        let mut rounds = Reader::new(c.section(SEC_ROUNDS)?);
        let rounds_done = rounds.get_u64()?;
        rounds.expect_end()?;
        let mut pools = Reader::new(c.section(SEC_POOLS)?);
        let mut survivors = vec![Vec::new(); pools.get_count(8)?];
        for pool in &mut survivors {
            let len = pools.get_count(8)?;
            pool.reserve_exact(len);
            for _ in 0..len {
                let i = pools.get_u64()?;
                pool.push(usize::try_from(i).map_err(|_| {
                    StoreError::Malformed(format!("survivor index {i} overflows usize"))
                })?);
            }
        }
        pools.expect_end()?;
        Ok(Checkpoint {
            fingerprint: c.fingerprint,
            rounds_done,
            survivors,
        })
    }
}

/// Atomically and durably writes `ck` to `path` through the store's
/// durable-write path.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure; the previous checkpoint at
/// `path`, if any, is then left untouched.
pub fn save(path: &Path, ck: &Checkpoint) -> Result<(), StoreError> {
    write_durable(
        path,
        ck.to_container().to_bytes(),
        FaultSites {
            before_write: Some(SITE_SAVE),
            corrupt: SITE_SAVE,
            before_rename: None,
        },
    )
}

/// Whether a checkpoint error is worth retrying: I/O failures are
/// (possibly transient outage), corruption and fingerprint mismatches
/// are not (retrying re-reads the same bad bytes).
fn is_transient(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(_))
}

/// [`save`] wrapped in the governor's jittered-backoff retry (site
/// `checkpoint.save`); `seed` should be the run fingerprint so the
/// backoff schedule is deterministic per run.
///
/// # Errors
///
/// The last [`StoreError::Io`] once retries are exhausted.
pub fn save_retrying(
    path: &Path,
    ck: &Checkpoint,
    policy: &RetryPolicy,
    seed: u64,
    metrics: &PipelineMetrics,
) -> Result<(), StoreError> {
    with_retry(SITE_SAVE, policy, seed, metrics, is_transient, || {
        save(path, ck)
    })
}

/// Loads the checkpoint at `path`; `Ok(None)` when no file exists (a
/// fresh run, not an error).
///
/// # Errors
///
/// [`StoreError::Io`] on read failures other than not-found, and the
/// store's typed corruption errors when the file is not an intact
/// checkpoint container (a damaged file, or a checkpoint in an older
/// format).
pub fn load(path: &Path) -> Result<Option<Checkpoint>, StoreError> {
    fault::maybe_fail_io(SITE_LOAD)?;
    match read_container(path) {
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        read => Checkpoint::from_container(&read?).map(Some),
    }
}

/// [`load`] wrapped in the governor's retry (site `checkpoint.load`);
/// see [`save_retrying`].
///
/// # Errors
///
/// The last [`StoreError::Io`] once retries are exhausted, or the first
/// corruption error (corruption never retries).
pub fn load_retrying(
    path: &Path,
    policy: &RetryPolicy,
    seed: u64,
    metrics: &PipelineMetrics,
) -> Result<Option<Checkpoint>, StoreError> {
    with_retry(SITE_LOAD, policy, seed, metrics, is_transient, || {
        load(path)
    })
}

/// Removes the checkpoint at `path` (best-effort; absent is fine).
pub fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("darklight_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            rounds_done: 3,
            survivors: vec![vec![0, 4, 17], vec![], vec![2]],
        }
    }

    #[test]
    fn save_load_round_trip() {
        let path = temp_path("roundtrip.ckpt");
        let ck = sample();
        save(&path, &ck).unwrap();
        assert_eq!(load(&path).unwrap().unwrap(), ck);
        remove(&path);
        assert_eq!(load(&path).unwrap(), None);
    }

    #[test]
    fn missing_file_is_a_fresh_run() {
        assert!(load(Path::new("/nonexistent/dir/ck.ckpt"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_files_are_typed_errors() {
        let path = temp_path("malformed.ckpt");
        // A checkpoint in the older JSON format is not a container.
        std::fs::write(
            &path,
            "{\n  \"version\": 1,\n  \"fingerprint\": 7,\n  \"rounds_done\": 1,\n  \
             \"survivors\": [[0, 1]]\n}\n",
        )
        .unwrap();
        assert!(matches!(load(&path).unwrap_err(), StoreError::Malformed(_)));
        // An intact container that lacks the checkpoint sections.
        let mut c = Container::new(7);
        c.push_section(SEC_ROUNDS, 1u64.to_le_bytes().to_vec());
        std::fs::write(&path, c.to_bytes()).unwrap();
        assert!(matches!(
            load(&path).unwrap_err(),
            StoreError::MissingSection { section } if section == SEC_POOLS
        ));
        remove(&path);
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_checkpoint_is_refused() {
        // XOR 0x01 turns one ASCII digit into another, which a text
        // format would happily parse as a different survivor index. No
        // damaged file may load: every flip and every truncation must be
        // a typed error, never a panic and never a silently changed pool.
        let path = temp_path("bitrot.ckpt");
        save(&path, &sample()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            if let Ok(ck) = load(&path) {
                panic!("flip at byte {i} loaded: {ck:?}");
            }
        }
        for keep in 0..clean.len() {
            std::fs::write(&path, &clean[..keep]).unwrap();
            if let Ok(ck) = load(&path) {
                panic!("truncation to {keep} bytes loaded: {ck:?}");
            }
        }
        remove(&path);
    }

    #[test]
    fn saved_bytes_are_identical_across_repeated_runs() {
        // The checkpoint file participates in the byte-identical resume
        // guarantee: saving the same logical state twice must produce the
        // same bytes (no HashMap iteration, no timestamps, no randomness
        // anywhere in the serialization path).
        let a = temp_path("stable_a.ckpt");
        let b = temp_path("stable_b.ckpt");
        save(&a, &sample()).unwrap();
        save(&b, &sample()).unwrap();
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "checkpoint serialization is not byte-deterministic"
        );
        assert_eq!(
            std::fs::read(&a).unwrap(),
            sample().to_container().to_bytes()
        );
        remove(&a);
        remove(&b);
    }

    #[test]
    fn save_is_atomic_against_partial_writes() {
        let path = temp_path("atomic.ckpt");
        save(&path, &sample()).unwrap();
        // A stale tmp sibling (crash between write and rename) must not
        // break subsequent saves or loads.
        std::fs::write(path.with_extension("tmp"), "garbage").unwrap();
        let mut ck = sample();
        ck.rounds_done = 4;
        save(&path, &ck).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().rounds_done, 4);
        remove(&path);
    }
}
