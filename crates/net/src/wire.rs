//! Compact binary wire codec.
//!
//! Protocol messages are sequences of primitive fields. The codec is
//! deliberately minimal: little-endian fixed-width integers, length-prefixed
//! byte strings and vectors. Every read is bounds-checked; a malformed
//! message yields [`WireError`] rather than a panic — the server must never
//! crash on attacker-controlled bytes.

use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes were available than the field requires.
    Truncated {
        /// Field kind being read.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A length prefix exceeds the sanity limit.
    LengthOverflow {
        /// Declared length.
        declared: u64,
    },
    /// Trailing garbage after the last expected field.
    TrailingBytes {
        /// How many bytes remained.
        count: usize,
    },
    /// A tag byte did not match any known message kind.
    UnknownTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                available,
            } => write!(f, "truncated {what}: need {needed} bytes, have {available}"),
            WireError::LengthOverflow { declared } => {
                write!(f, "length prefix {declared} exceeds sanity limit")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} unexpected trailing bytes")
            }
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity limit on any single length prefix (64 MiB).
pub const MAX_FIELD_LEN: u64 = 64 * 1024 * 1024;

/// Message writer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Start an empty message.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start with a capacity hint.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Start from a reused buffer, keeping its capacity and discarding its
    /// contents — for a writer that encodes many messages through one
    /// buffer, such as the index checkpoint's fixed-size chunk.
    #[must_use]
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter { buf }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a fixed-width byte array (no length prefix).
    pub fn put_array(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed vector of `u64`.
    pub fn put_u64_vec(&mut self, v: &[u64]) -> &mut Self {
        self.put_u64(v.len() as u64);
        for x in v {
            self.put_u64(*x);
        }
        self
    }

    /// Finish, returning the encoded message.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Message reader. A clone reads on from the same position, on its own.
#[derive(Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a received message.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated {
                what,
                needed: n,
                available: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an item count and validate it against the bytes actually
    /// available: each item needs at least `min_item_bytes`, so a count
    /// exceeding `remaining / min_item_bytes` is a malformed (or malicious)
    /// message. Callers then allocate `Vec::with_capacity(count)` safely —
    /// without this check a forged count aborts the process on allocation.
    ///
    /// # Panics
    /// Panics if `min_item_bytes` is zero (caller bug).
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        assert!(min_item_bytes > 0, "min_item_bytes must be positive");
        let declared = self.get_u64()?;
        let max = (self.remaining() / min_item_bytes) as u64;
        if declared > max {
            return Err(WireError::LengthOverflow { declared });
        }
        Ok(declared as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u64()?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { declared: len });
        }
        self.take(len as usize, "bytes body")
    }

    /// Read a fixed-width 32-byte array.
    pub fn get_array32(&mut self) -> Result<[u8; 32], WireError> {
        Ok(self.take(32, "array32")?.try_into().expect("32 bytes"))
    }

    /// Read a fixed-width array of `n` bytes.
    pub fn get_array(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n, "fixed array")
    }

    /// Read a length-prefixed vector of `u64`.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.get_u64()?;
        if len > MAX_FIELD_LEN / 8 {
            return Err(WireError::LengthOverflow { declared: len });
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Assert the message is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes {
                count: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = WireWriter::new();
        w.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX)
            .put_bytes(b"payload")
            .put_array(&[1, 2, 3])
            .put_u64_vec(&[10, 20, 30]);
        let msg = w.finish();

        let mut r = WireReader::new(&msg);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_array(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![10, 20, 30]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let msg = w.finish();
        let mut r = WireReader::new(&msg[..4]);
        assert!(matches!(r.get_u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn length_bomb_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert!(matches!(
            r.get_bytes(),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn declared_length_beyond_buffer_is_truncated_error() {
        let mut w = WireWriter::new();
        w.put_u64(100); // claims 100 bytes follow
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert!(matches!(r.get_bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn count_bomb_is_rejected_before_allocation() {
        // A forged count far beyond the available bytes must be rejected
        // by get_count — otherwise Vec::with_capacity aborts the process.
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX / 2).put_u8(0);
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert!(matches!(
            r.get_count(16),
            Err(WireError::LengthOverflow { .. })
        ));
        // An honest count within bounds passes.
        let mut w = WireWriter::new();
        w.put_u64(2).put_array(&[0u8; 32]);
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert_eq!(r.get_count(16).unwrap(), 2);
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = WireWriter::new();
        w.put_u8(1).put_u8(2);
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        r.get_u8().unwrap();
        assert_eq!(r.remaining(), 1);
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn empty_collections_round_trip() {
        let mut w = WireWriter::new();
        w.put_bytes(b"").put_u64_vec(&[]);
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert_eq!(r.get_u64_vec().unwrap(), Vec::<u64>::new());
        r.finish().unwrap();
    }

    #[test]
    fn array32_round_trip() {
        let arr = [9u8; 32];
        let mut w = WireWriter::new();
        w.put_array(&arr);
        let msg = w.finish();
        let mut r = WireReader::new(&msg);
        assert_eq!(r.get_array32().unwrap(), arr);
    }
}
