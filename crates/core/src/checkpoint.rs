//! Batch-attribution checkpoints (crash recovery for §IV-J runs).
//!
//! `run_batched` exists for resource-constrained hardware, which is
//! exactly where attribution runs take hours and interruptions are
//! routine; without a checkpoint, a crash in round 7 forfeits rounds
//! 1–6. This module persists the inter-round state — the per-unknown
//! survivor pools plus the number of completed rounds — to a small JSON
//! file after every round, and loads it back on resume.
//!
//! The file is written with the serde-free [`darklight_obs::Json`]
//! writer and read back with its parser, in the same style as the
//! metrics snapshots. Writes go to a `.tmp` sibling first and are
//! `rename`d into place, so a crash mid-write leaves the previous
//! checkpoint intact rather than a torn file.
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
use darklight_obs::{Json, PipelineMetrics};
use std::fmt;
use std::path::Path;

/// Format version written into every checkpoint file.
pub const CHECKPOINT_VERSION: u64 = 1;

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

/// Errors loading or saving a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file exists but is not a valid checkpoint.
    Malformed(String),
    /// The checkpoint belongs to a different run (config or corpus
    /// changed since it was written).
    FingerprintMismatch {
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this run's \
                 {expected:#018x} — the config or corpus changed since it was written; \
                 delete the checkpoint (or point --checkpoint elsewhere) to start fresh"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, CheckpointError> {
    match doc.get(key) {
        Some(Json::UInt(n)) => Ok(*n),
        other => Err(CheckpointError::Malformed(format!(
            "field {key:?} missing or not an unsigned integer (got {other:?})"
        ))),
    }
}

/// Serializes a checkpoint to its JSON document.
fn to_json(ck: &Checkpoint) -> Json {
    let mut doc = Json::object();
    doc.set("version", Json::UInt(CHECKPOINT_VERSION));
    doc.set("fingerprint", Json::UInt(ck.fingerprint));
    doc.set("rounds_done", Json::UInt(ck.rounds_done));
    doc.set(
        "survivors",
        Json::Array(
            ck.survivors
                .iter()
                .map(|pool| Json::Array(pool.iter().map(|&i| Json::UInt(i as u64)).collect()))
                .collect(),
        ),
    );
    doc
}

/// Parses a checkpoint from its JSON document.
fn from_json(doc: &Json) -> Result<Checkpoint, CheckpointError> {
    let version = get_u64(doc, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Malformed(format!(
            "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
        )));
    }
    let fingerprint = get_u64(doc, "fingerprint")?;
    let rounds_done = get_u64(doc, "rounds_done")?;
    let Some(Json::Array(pools)) = doc.get("survivors") else {
        return Err(CheckpointError::Malformed(
            "field \"survivors\" missing or not an array".to_string(),
        ));
    };
    let mut survivors = Vec::with_capacity(pools.len());
    for pool in pools {
        let Json::Array(items) = pool else {
            return Err(CheckpointError::Malformed(
                "survivor pool is not an array".to_string(),
            ));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Json::UInt(n) => out.push(*n as usize),
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "survivor index is not an unsigned integer (got {other:?})"
                    )))
                }
            }
        }
        survivors.push(out);
    }
    Ok(Checkpoint {
        fingerprint,
        rounds_done,
        survivors,
    })
}

/// Atomically and durably writes `ck` to `path` (tmp sibling, fsync,
/// rename, directory fsync).
///
/// The temp file is `sync_all`'d *before* the rename — renaming an
/// unsynced file can leave a zero-length or torn "checkpoint" after a
/// crash, which is worse than no checkpoint because resume would trust
/// it. The parent directory is then fsynced so the rename itself
/// survives a crash (on platforms where directories can be opened).
///
/// # Errors
///
/// Propagates I/O failures; on error the previous checkpoint at `path`,
/// if any, is left untouched.
pub fn save(path: &Path, ck: &Checkpoint) -> Result<(), CheckpointError> {
    fault::maybe_fail_io("checkpoint.save")?;
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(to_json(ck).render_pretty().as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Whether a checkpoint error is worth retrying: I/O failures are
/// (possibly transient outage), corruption and fingerprint mismatches
/// are not (retrying re-reads the same bad bytes).
fn is_transient(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::Io(_))
}

/// [`save`] wrapped in the governor's jittered-backoff retry (site
/// `checkpoint.save`); `seed` should be the run fingerprint so the
/// backoff schedule is deterministic per run.
///
/// # Errors
///
/// The last [`CheckpointError::Io`] once retries are exhausted, or the
/// first non-transient error.
pub fn save_retrying(
    path: &Path,
    ck: &Checkpoint,
    policy: &RetryPolicy,
    seed: u64,
    metrics: &PipelineMetrics,
) -> Result<(), CheckpointError> {
    with_retry(
        "checkpoint.save",
        policy,
        seed,
        metrics,
        is_transient,
        || save(path, ck),
    )
}

/// Loads the checkpoint at `path`; `Ok(None)` when no file exists (a
/// fresh run, not an error).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on read failures other than
/// not-found, and [`CheckpointError::Malformed`] when the file does not
/// parse as a supported checkpoint.
pub fn load(path: &Path) -> Result<Option<Checkpoint>, CheckpointError> {
    fault::maybe_fail_io("checkpoint.load")?;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io(e)),
    };
    let doc = Json::parse(&text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    Ok(Some(from_json(&doc)?))
}

/// [`load`] wrapped in the governor's retry (site `checkpoint.load`);
/// see [`save_retrying`].
///
/// # Errors
///
/// The last [`CheckpointError::Io`] once retries are exhausted, or the
/// first non-transient error ([`CheckpointError::Malformed`] /
/// [`CheckpointError::FingerprintMismatch`] never retry).
pub fn load_retrying(
    path: &Path,
    policy: &RetryPolicy,
    seed: u64,
    metrics: &PipelineMetrics,
) -> Result<Option<Checkpoint>, CheckpointError> {
    with_retry(
        "checkpoint.load",
        policy,
        seed,
        metrics,
        is_transient,
        || load(path),
    )
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
        let path = temp_path("roundtrip.json");
        let ck = sample();
        save(&path, &ck).unwrap();
        assert_eq!(load(&path).unwrap().unwrap(), ck);
        remove(&path);
        assert_eq!(load(&path).unwrap(), None);
    }

    #[test]
    fn missing_file_is_a_fresh_run() {
        assert!(load(Path::new("/nonexistent/dir/ck.json"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_files_are_typed_errors() {
        let path = temp_path("malformed.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(
            load(&path).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        std::fs::write(&path, "{\"version\": 999}").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("version 999"), "{err}");
        remove(&path);
    }

    #[test]
    fn saved_bytes_are_identical_across_repeated_runs() {
        // The checkpoint file participates in the byte-identical resume
        // guarantee: saving the same logical state twice must produce the
        // same bytes (no HashMap iteration, no timestamps, no randomness
        // anywhere in the serialization path).
        let a = temp_path("stable_a.json");
        let b = temp_path("stable_b.json");
        save(&a, &sample()).unwrap();
        save(&b, &sample()).unwrap();
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "checkpoint serialization is not byte-deterministic"
        );
        remove(&a);
        remove(&b);
    }

    #[test]
    fn save_is_atomic_against_partial_writes() {
        let path = temp_path("atomic.json");
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
