//! The versioned, sectioned, CRC-checksummed artifact container.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! magic        8 bytes   "DLSTORE\0"
//! version      u32       FORMAT_VERSION
//! fingerprint  u64       caller-supplied state fingerprint
//! sections     u32       section count
//! header_crc   u32       CRC-32 of the 24 bytes above
//! per section:
//!   tag        len-prefixed UTF-8 string
//!   length     u64       payload bytes
//!   crc        u32       CRC-32 of tag bytes ‖ length (LE) ‖ payload
//!   payload    length bytes
//! ```
//!
//! The section CRC covers the tag and length as well as the payload, so
//! a flip anywhere in a section frame — not just its payload — fails
//! the checksum instead of parsing as a differently-named section.
//!
//! Every field that could mislead the reader is guarded: the header has
//! its own CRC (a flipped fingerprint or count byte is detected before
//! it can be trusted), payload lengths are validated against the bytes
//! actually present (truncation is reported as
//! [`StoreError::TruncatedSection`], never an allocation attempt), and
//! each payload is checksummed before it is handed to a decoder. Loads
//! return typed errors on every corruption; nothing panics.
//!
//! Writing goes through the one durable-write path, [`write_durable`],
//! instrumented with the `DARKLIGHT_FAULT_IO` hooks at two sites:
//! `store.write_artifact` (transient errors and `trunc:`/`flip:` byte
//! corruption) and `store.publish_rename` (a crash between tmp write and
//! rename).

use std::fs;
use std::path::Path;

use crate::codec::{Reader, Writer};
use crate::crc::{crc32, Crc32};
use crate::durable::{write_durable, FaultSites};
use crate::StoreError;

/// The 8-byte magic prefix of every container file.
pub const MAGIC: &[u8; 8] = b"DLSTORE\0";

/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Fault-injection site for the buffered artifact write.
pub const SITE_WRITE: &str = "store.write_artifact";

/// Fault-injection site for the tmp → final rename.
pub const SITE_RENAME: &str = "store.publish_rename";

/// One tagged, checksummed payload inside a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The section tag (e.g. `"vocab.word"`).
    pub tag: String,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// An in-memory container: a state fingerprint plus ordered sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Container {
    /// The caller's fingerprint of the state encoded in the sections.
    pub fingerprint: u64,
    /// The sections, in write order.
    pub sections: Vec<Section>,
}

impl Container {
    /// Creates an empty container with the given fingerprint.
    pub fn new(fingerprint: u64) -> Container {
        Container {
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn push_section(&mut self, tag: &str, payload: Vec<u8>) {
        self.sections.push(Section {
            tag: tag.to_string(),
            payload,
        });
    }

    /// The payload of the section tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when absent.
    pub fn section(&self, tag: &str) -> Result<&[u8], StoreError> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.payload.as_slice())
            .ok_or_else(|| StoreError::MissingSection {
                section: tag.to_string(),
            })
    }

    /// Serializes the container to its on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = Writer::new();
        header.put_u32(FORMAT_VERSION);
        header.put_u64(self.fingerprint);
        header.put_u32(self.sections.len() as u32);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&header.into_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for s in &self.sections {
            let mut frame = Writer::new();
            frame.put_str(&s.tag);
            frame.put_u64(s.payload.len() as u64);
            frame.put_u32(section_crc(&s.tag, &s.payload));
            out.extend_from_slice(&frame.into_bytes());
            out.extend_from_slice(&s.payload);
        }
        out
    }

    /// Parses a container from bytes, verifying the header CRC, the
    /// format version, and every section CRC.
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for every way the bytes can be wrong:
    /// `Malformed` (magic/frame damage), `TruncatedSection`,
    /// `VersionMismatch`, `SectionCrcMismatch`. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Container, StoreError> {
        const HEADER_LEN: usize = 8 + 4 + 8 + 4; // magic + version + fingerprint + count
        if bytes.len() < HEADER_LEN + 4 {
            return Err(StoreError::TruncatedSection {
                section: "<header>".to_string(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::Malformed("bad magic".to_string()));
        }
        let mut r = Reader::new(&bytes[8..]);
        let version = r.get_u32()?;
        let fingerprint = r.get_u64()?;
        let count = r.get_u32()?;
        let stored_header_crc = r.get_u32()?;
        if crc32(&bytes[..HEADER_LEN]) != stored_header_crc {
            return Err(StoreError::SectionCrcMismatch {
                section: "<header>".to_string(),
            });
        }
        if version != FORMAT_VERSION {
            return Err(StoreError::VersionMismatch {
                expected: FORMAT_VERSION,
                found: version,
            });
        }
        let mut sections = Vec::with_capacity(count.min(1024) as usize);
        for i in 0..count {
            let tag = r
                .get_str()
                .map_err(|_| StoreError::TruncatedSection {
                    section: format!("<section {i}>"),
                })?
                .to_string();
            let len = r.get_u64()?;
            let stored_crc = r.get_u32()?;
            let len = usize::try_from(len).unwrap_or(usize::MAX);
            if len > r.remaining() {
                return Err(StoreError::TruncatedSection { section: tag });
            }
            let payload = r.take(len)?.to_vec();
            if section_crc(&tag, &payload) != stored_crc {
                return Err(StoreError::SectionCrcMismatch { section: tag });
            }
            sections.push(Section { tag, payload });
        }
        r.expect_end()
            .map_err(|_| StoreError::Malformed("trailing bytes after last section".to_string()))?;
        Ok(Container {
            fingerprint,
            sections,
        })
    }
}

/// The checksum of one section: tag bytes, payload length, payload.
/// Covering the frame fields means no byte of a section can change
/// without failing the check.
fn section_crc(tag: &str, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(tag.as_bytes());
    c.update(&(payload.len() as u64).to_le_bytes());
    c.update(payload);
    c.finish()
}

/// Reads and parses a container file.
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be read; otherwise the typed
/// corruption errors of [`Container::from_bytes`].
pub fn read_container(path: &Path) -> Result<Container, StoreError> {
    let bytes = fs::read(path)?;
    Container::from_bytes(&bytes)
}

/// Serializes and durably writes a container through
/// [`write_durable`]. The `trunc:`/`flip:` modes at `store.write_artifact`
/// corrupt the buffered bytes (modelling a torn write that still
/// renamed), and the count mode at `store.publish_rename` fails before
/// the rename (modelling a crash that leaves only the tmp file).
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure, injected or real.
pub fn write_container(path: &Path, container: &Container) -> Result<(), StoreError> {
    write_durable(
        path,
        container.to_bytes(),
        FaultSites {
            before_write: Some(SITE_WRITE),
            corrupt: SITE_WRITE,
            before_rename: Some(SITE_RENAME),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Container {
        let mut c = Container::new(0xfeed_f00d_dead_beef);
        c.push_section("alpha", b"first payload".to_vec());
        c.push_section("beta", vec![0u8; 64]);
        c
    }

    #[test]
    fn round_trips_bytes_exactly() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Container::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.section("alpha").unwrap(), b"first payload");
        assert!(matches!(
            back.section("gamma"),
            Err(StoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The whole point of the format: no byte of the file can change
        // without the load either failing typed or (vacuously) the file
        // being identical. Flip each byte in turn and demand a typed
        // error — never a panic, never a silent wrong parse.
        let c = sample();
        let clean = c.to_bytes();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0xff;
            match Container::from_bytes(&bad) {
                Err(_) => {}
                Ok(parsed) => panic!("flip at byte {i} parsed silently: {parsed:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let c = sample();
        let clean = c.to_bytes();
        for keep in 0..clean.len() {
            match Container::from_bytes(&clean[..keep]) {
                Err(_) => {}
                Ok(_) => panic!("truncation to {keep} bytes parsed silently"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut c = sample().to_bytes();
        // Bump the version field (bytes 8..12) and re-stamp the header
        // CRC so the version check, not the CRC, fires.
        c[8] = 9;
        let crc = crc32(&c[..24]).to_le_bytes();
        c[24..28].copy_from_slice(&crc);
        assert!(matches!(
            Container::from_bytes(&c),
            Err(StoreError::VersionMismatch {
                expected: FORMAT_VERSION,
                found: 9
            })
        ));
    }

    #[test]
    fn payload_corruption_names_the_section() {
        let c = sample();
        let clean = c.to_bytes();
        // Flip the final payload byte — inside section "beta".
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        match Container::from_bytes(&bad) {
            Err(StoreError::SectionCrcMismatch { section }) => assert_eq!(section, "beta"),
            other => panic!("expected beta crc mismatch, got {other:?}"),
        }
    }

    #[test]
    fn durable_write_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("dl-store-container-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.dla");
        let c = sample();
        write_container(&path, &c).unwrap();
        assert_eq!(read_container(&path).unwrap(), c);
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_not_panic() {
        assert!(matches!(
            read_container(Path::new("/nonexistent/artifact.dla")),
            Err(StoreError::Io(_))
        ));
    }
}
