//! A small, versioned, checksummed binary codec for metadata files.
//!
//! UniDrive stores its metadata *as files on the clouds*, so it needs a
//! self-describing on-wire format. We use a hand-rolled length-prefixed
//! encoding (no external serialization crates): every top-level message
//! carries a magic tag, a format version, and a trailing SHA-1-derived
//! checksum so corrupted or foreign files are rejected instead of
//! misparsed.

use unidrive_util::bytes::Bytes;
use unidrive_crypto::Sha1;

/// Error decoding a metadata buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the expected field.
    UnexpectedEof {
        /// What was being read.
        context: &'static str,
    },
    /// The magic tag did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the buffer.
        found: u8,
    },
    /// Trailing checksum mismatch (corruption or wrong key).
    BadChecksum,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length or count field is implausibly large for the buffer.
    BadLength {
        /// The offending length.
        len: u64,
    },
    /// A varint ran past ten bytes or past 64 bits.
    BadVarint,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof { context } => {
                write!(f, "unexpected end of buffer while reading {context}")
            }
            DecodeError::BadMagic => write!(f, "bad magic tag"),
            DecodeError::BadVersion { found } => write!(f, "unsupported format version {found}"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::BadLength { len } => write!(f, "implausible length {len}"),
            DecodeError::BadVarint => write!(f, "varint overflows 64 bits"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a message with a 4-byte magic and a format version.
    pub fn with_header(magic: [u8; 4], version: u8) -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&magic);
        w.buf.push(version);
        w
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (big-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32` (big-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` (big-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` as a LEB128 varint: seven bits a byte, low
    /// first, the high bit set on every byte but the last (so 0 and 1
    /// are the one bytes 0 and 1).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a fixed-size array without a length prefix.
    pub fn put_fixed(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Finishes the message: appends an 8-byte checksum (truncated SHA-1
    /// of everything so far) and returns the buffer.
    pub fn finish(mut self) -> Bytes {
        let digest = Sha1::digest(&self.buf);
        self.buf.extend_from_slice(&digest.as_bytes()[..8]);
        Bytes::from(self.buf)
    }

    /// Bytes written so far (pre-checksum).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential decoder over a checksummed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verifies the magic, version and trailing checksum, returning a
    /// reader positioned after the header.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`].
    pub fn with_header(
        data: &'a [u8],
        magic: [u8; 4],
        expect_version: u8,
    ) -> Result<Self, DecodeError> {
        if data.len() < 4 + 1 + 8 {
            return Err(DecodeError::UnexpectedEof { context: "header" });
        }
        let (body, checksum) = data.split_at(data.len() - 8);
        let digest = Sha1::digest(body);
        if &digest.as_bytes()[..8] != checksum {
            return Err(DecodeError::BadChecksum);
        }
        if body[..4] != magic {
            return Err(DecodeError::BadMagic);
        }
        if body[4] != expect_version {
            return Err(DecodeError::BadVersion { found: body[4] });
        }
        Ok(Reader { buf: body, pos: 5 })
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::UnexpectedEof { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a LEB128 varint written by [`Writer::put_varint`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if the buffer ends inside it,
    /// [`DecodeError::BadVarint`] if it does not fit a `u64`.
    pub fn get_varint(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8(context)?;
            let bits = u64::from(byte & 0x7f);
            if bits << shift >> shift != bits {
                return Err(DecodeError::BadVarint);
            }
            v |= bits << shift;
            if byte < 0x80 {
                return Ok(v);
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// Reads length-prefixed bytes.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u32(context)? as usize;
        if len > self.buf.len() {
            return Err(DecodeError::BadLength { len: len as u64 });
        }
        self.take(len, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, DecodeError> {
        std::str::from_utf8(self.get_bytes(context)?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads `N` bytes without a length prefix.
    pub fn get_fixed<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N, context)?.try_into().expect("N bytes"))
    }

    /// Whether every body byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    #[test]
    fn round_trip_all_field_types() {
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        w.put_fixed(&[9; 4]);
        let buf = w.finish();

        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 300);
        assert_eq!(r.get_u32("c").unwrap(), 70_000);
        assert_eq!(r.get_u64("d").unwrap(), 1 << 40);
        assert_eq!(r.get_str("e").unwrap(), "héllo");
        assert_eq!(r.get_bytes("f").unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_fixed::<4>("g").unwrap(), [9; 4]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_u64(42);
        let buf = w.finish();
        let mut bad = buf.to_vec();
        bad[7] ^= 1;
        assert_eq!(
            Reader::with_header(&bad, MAGIC, 1).unwrap_err(),
            DecodeError::BadChecksum
        );
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let w = Writer::with_header(MAGIC, 2);
        let buf = w.finish();
        assert_eq!(
            Reader::with_header(&buf, *b"OTHR", 2).unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            Reader::with_header(&buf, MAGIC, 1).unwrap_err(),
            DecodeError::BadVersion { found: 2 }
        );
    }

    #[test]
    fn truncated_buffer_rejected() {
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_str("hello");
        let buf = w.finish();
        for cut in [0usize, 5, buf.len() - 1] {
            assert!(Reader::with_header(&buf[..cut], MAGIC, 1).is_err());
        }
    }

    #[test]
    fn eof_mid_field_reported_with_context() {
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_u8(1);
        let buf = w.finish();
        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        let _ = r.get_u8("first").unwrap();
        assert_eq!(
            r.get_u64("second").unwrap_err(),
            DecodeError::UnexpectedEof { context: "second" }
        );
    }

    #[test]
    fn varints_round_trip_and_small_ones_are_one_byte() {
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut w = Writer::with_header(MAGIC, 1);
        for v in values {
            w.put_varint(v);
        }
        let buf = w.finish();
        assert_eq!(&buf[5..7], &[0, 1], "0 and 1 encode as one byte each");
        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        for v in values {
            assert_eq!(r.get_varint("v").unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn a_truncated_varint_is_eof() {
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_fixed(&[0x80, 0x80]); // continuation bits with no last byte
        let buf = w.finish();
        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        assert_eq!(
            r.get_varint("count").unwrap_err(),
            DecodeError::UnexpectedEof { context: "count" }
        );
    }

    #[test]
    fn an_overflowing_varint_is_rejected() {
        // Ten bytes whose last carries bits past the 64th.
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_fixed(&[0xff; 9]);
        w.put_u8(0x02);
        let buf = w.finish();
        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        assert_eq!(r.get_varint("count").unwrap_err(), DecodeError::BadVarint);
        // Eleven bytes: past ten with the continuation bit still set.
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_fixed(&[0x80; 10]);
        w.put_u8(0);
        let buf = w.finish();
        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        assert_eq!(r.get_varint("count").unwrap_err(), DecodeError::BadVarint);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        // Hand-craft a buffer with a huge length prefix but a valid
        // checksum.
        let mut w = Writer::with_header(MAGIC, 1);
        w.put_u32(u32::MAX);
        let buf = w.finish();
        let mut r = Reader::with_header(&buf, MAGIC, 1).unwrap();
        assert!(matches!(
            r.get_bytes("blob").unwrap_err(),
            DecodeError::BadLength { .. }
        ));
    }
}
