//! The workspace's one durable-write path. Fit-artifact containers, the
//! epoch `CURRENT` pointer and batch checkpoints all reach disk through
//! [`write_durable`], so a crash at any point leaves either the previous
//! file or the new one under the target name, never a mix. The CRCs of
//! the container format catch the torn bytes that the rename discipline
//! alone cannot (a bad sector, or the `trunc:`/`flip:` fault modes).

use std::fs;
use std::io::Write as _;
use std::path::Path;

use darklight_govern::fault;

use crate::StoreError;

/// Where [`write_durable`] consults the `DARKLIGHT_FAULT_IO` hooks.
#[derive(Debug, Clone, Copy)]
pub struct FaultSites {
    /// Count-mode site checked before anything is written.
    pub before_write: Option<&'static str>,
    /// Site whose one-shot `trunc:`/`flip:` corruption is applied to
    /// the bytes before they reach the tmp file.
    pub corrupt: &'static str,
    /// Count-mode site checked once the tmp file is durable, before the
    /// rename (a crash that leaves only the tmp file).
    pub before_rename: Option<&'static str>,
}

/// Durably replaces the file at `path` with `bytes`: tmp sibling
/// (`path.with_extension("tmp")`), write, `fsync`, rename over the
/// target, parent-directory `fsync`. The tmp file is synced *before*
/// the rename, because renaming an unsynced file can leave a torn file
/// under the target name after a crash, which a reader would trust.
/// The fault hooks named by `sites` fire where their fields say.
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure, injected or real; the
/// previous file at `path`, if any, is then left untouched.
pub fn write_durable(path: &Path, mut bytes: Vec<u8>, sites: FaultSites) -> Result<(), StoreError> {
    if let Some(site) = sites.before_write {
        fault::maybe_fail_io(site)?;
    }
    if let Some(f) = fault::take_write_fault(sites.corrupt) {
        f.corrupt(&mut bytes);
    }
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    if let Some(site) = sites.before_rename {
        fault::maybe_fail_io(site)?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Fsyncs the directory holding `path` so a rename into it is durable.
/// A bare file name lives in the current directory.
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_file_name_syncs_the_current_directory() {
        // `--checkpoint link_state.ckpt` names a file whose parent path
        // is empty; the write must still succeed.
        let name = format!("dl-durable-{}.bin", std::process::id());
        let path = Path::new(&name);
        let sites = FaultSites {
            before_write: None,
            corrupt: "durable.test",
            before_rename: None,
        };
        write_durable(path, b"state".to_vec(), sites).unwrap();
        assert_eq!(fs::read(path).unwrap(), b"state");
        fs::remove_file(path).unwrap();
    }
}
