//! The little-endian byte codec shared by the container frame and the
//! section payload encoders.
//!
//! [`Writer`] appends fixed-width integers, float bit patterns, and
//! length-prefixed byte strings to a growable buffer; [`Reader`] walks a
//! byte slice with bounds-checked reads that return
//! [`StoreError::Malformed`] instead of panicking, so hostile bytes from
//! a corrupt artifact can never take the process down. Floats travel as
//! raw IEEE-754 bit patterns (`to_bits`/`from_bits`), which is what
//! makes artifact round-trips bit-exact.

use crate::StoreError;

/// Appends primitive values to an owned byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its raw bit pattern.
    pub fn put_f32_bits(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Walks a byte slice with bounds-checked primitive reads.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Malformed(format!(
                "need {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` from its raw bit pattern.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when fewer than 4 bytes remain.
    pub fn get_f32_bits(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads a `u64`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when the prefix overruns the input —
    /// the length is validated against the remaining bytes *before* any
    /// allocation, so a corrupt multi-gigabyte prefix cannot force one.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Malformed(format!("length prefix {len} overflows usize")))?;
        self.take(len)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] on overrun or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, StoreError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|e| StoreError::Malformed(format!("invalid utf-8 in string: {e}")))
    }

    /// Reads a `u64` count for a following sequence of items at least
    /// `min_item_bytes` wide each, rejecting counts that could not
    /// possibly fit in the remaining input. Guards `Vec::with_capacity`
    /// against corrupt counts.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when the count overruns the input.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, StoreError> {
        let count = self.get_u64()?;
        let count = usize::try_from(count)
            .map_err(|_| StoreError::Malformed(format!("count {count} overflows usize")))?;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(StoreError::Malformed(format!(
                "count {count} cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Fails unless every byte has been consumed — trailing garbage in a
    /// section payload is corruption, not padding.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f32_bits(-0.0);
        w.put_str("époch");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32_bits().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_str().unwrap(), "époch");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn overrun_is_typed_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn huge_length_prefix_rejected_before_allocation() {
        // Length prefix claims u64::MAX bytes follow.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn counts_validated_against_remaining_bytes() {
        let mut w = Writer::new();
        w.put_u64(1_000_000); // claims a million 4-byte items
        w.put_u32(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_count(4), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn invalid_utf8_is_typed() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_str(), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.expect_end(), Err(StoreError::Malformed(_))));
    }
}
