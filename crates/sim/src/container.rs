//! The framing shared by COBRA's binary containers: `.cbt` traces,
//! `.cbs` checkpoints, `.cbm` interval metrics and `.cbr` served results.
//!
//! Every container starts with the same header shape,
//!
//! ```text
//! magic (8 bytes) | version (u16) | flags (u16 = 0) | fields… | header_crc (u32)
//! ```
//!
//! where the fields are length-capped UTF-8 strings, fixed `u64`s and
//! LEB128 varints, and `header_crc` is the CRC-32C of every header byte
//! before it. `.cbs`, `.cbm` and `.cbr` then close with one framed
//! payload,
//!
//! ```text
//! payload_len (u32) | payload | payload_crc (u32) | footer magic (4 bytes) | EOF
//! ```
//!
//! with `payload_crc` covering `payload_len` and the payload. `.cbt`
//! replaces the frame with its block, static-image and index sections but
//! shares the header and the read helpers. Fixed-width integers are
//! little-endian throughout.
//!
//! This module is the only code that knows the framing: [`HeaderWriter`]
//! and [`write_framed`] produce it, [`HeaderReader`] and [`read_payload`]
//! check it, and [`SliceCursor`] decodes payload bytes. Writers enforce the
//! same size caps readers do, so no writer can produce a file its reader
//! rejects. The normative description is `docs/CONTAINER_FORMAT.md` at the
//! repository root.

use crate::{varint, Crc32c, SnapError};
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Maximum length in bytes of any length-prefixed string, written or read.
pub const MAX_NAME_BYTES: u64 = 4096;

/// The framing constants that tell one container format from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The first 8 bytes of every file.
    pub magic: [u8; 8],
    /// The last 4 bytes of every file.
    pub footer_magic: [u8; 4],
    /// The only version this implementation reads and writes.
    pub version: u16,
    /// Maximum payload size in bytes, enforced on write and on read
    /// (`.cbt` applies it to each block).
    pub max_payload: u64,
}

/// Everything that can go wrong reading or writing a container. Errors
/// name the structure or identity field at fault, so a damaged or stale
/// file is diagnosable and never silently misread.
#[derive(Debug)]
pub enum ContainerError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the format's magic.
    BadMagic {
        /// The magic this reader expects.
        expected: [u8; 8],
    },
    /// The file does not end with the format's footer magic.
    BadFooterMagic,
    /// The file's version is not supported by this implementation.
    UnsupportedVersion {
        /// The version stored in the file.
        got: u16,
        /// The version this reader supports.
        supported: u16,
    },
    /// The header flags word has bits this implementation does not know.
    UnsupportedFlags(u16),
    /// The file (or a declared length) ended while reading the named
    /// structure.
    Truncated {
        /// Which structure was being read.
        what: &'static str,
    },
    /// A size exceeds the format's hard limits. On read the file is
    /// corrupt or hostile and nothing is allocated; on write nothing is
    /// written.
    LimitExceeded {
        /// Which quantity is over limit.
        what: &'static str,
        /// The declared or actual value.
        got: u64,
        /// The maximum the format accepts.
        max: u64,
    },
    /// The header CRC-32C does not match the header bytes.
    HeaderChecksum {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// The payload CRC-32C does not match its bytes.
    PayloadChecksum {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// A varint field is truncated or over-long.
    BadVarint {
        /// Which structure was being read.
        what: &'static str,
    },
    /// A string is not valid UTF-8.
    BadName,
    /// Bytes remain after the footer magic.
    TrailingBytes {
        /// How many bytes follow the footer.
        count: u64,
    },
    /// The payload decoded but is inconsistent (or, on write, the value
    /// to encode is).
    Malformed {
        /// What was inconsistent.
        what: &'static str,
    },
    /// The file belongs to a different experiment than the caller
    /// expected: one identity field differs. Never loaded.
    IdentityMismatch {
        /// Which identity field differs.
        field: &'static str,
        /// The value stored in the file.
        stored: String,
        /// The value the caller expected.
        expected: String,
    },
    /// A snapshot payload failed to decode into its destination.
    State(SnapError),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic { expected } => write!(
                f,
                "bad magic: not a `{}` file",
                String::from_utf8_lossy(expected)
            ),
            Self::BadFooterMagic => {
                write!(f, "bad footer magic (file truncated or not finalized)")
            }
            Self::UnsupportedVersion { got, supported } => write!(
                f,
                "unsupported format version {got} (this reader supports {supported})"
            ),
            Self::UnsupportedFlags(bits) => write!(
                f,
                "unsupported header flags {bits:#06x} (reserved bits set)"
            ),
            Self::Truncated { what } => write!(f, "file truncated while reading {what}"),
            Self::LimitExceeded { what, got, max } => {
                write!(f, "{what} = {got} exceeds the format limit of {max}")
            }
            Self::HeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::PayloadChecksum { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::BadVarint { what } => write!(f, "truncated or over-long varint in {what}"),
            Self::BadName => write!(f, "string is not valid UTF-8"),
            Self::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the footer magic")
            }
            Self::Malformed { what } => write!(f, "malformed payload: {what}"),
            Self::IdentityMismatch {
                field,
                stored,
                expected,
            } => write!(f, "file is for {field} `{stored}`, not `{expected}`"),
            Self::State(e) => write!(f, "state payload: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<SnapError> for ContainerError {
    fn from(e: SnapError) -> Self {
        Self::State(e)
    }
}

/// `Err(LimitExceeded)` iff `got > max`.
///
/// # Errors
///
/// [`ContainerError::LimitExceeded`] naming `what`.
pub fn cap(what: &'static str, got: u64, max: u64) -> Result<(), ContainerError> {
    if got > max {
        return Err(ContainerError::LimitExceeded { what, got, max });
    }
    Ok(())
}

/// `Err(IdentityMismatch)` naming `field` iff `stored != expected`.
///
/// # Errors
///
/// [`ContainerError::IdentityMismatch`] carrying both values.
pub fn same<T: PartialEq + fmt::Display>(
    field: &'static str,
    stored: T,
    expected: T,
) -> Result<(), ContainerError> {
    if stored != expected {
        return Err(ContainerError::IdentityMismatch {
            field,
            stored: stored.to_string(),
            expected: expected.to_string(),
        });
    }
    Ok(())
}

/// Appends `s` as a varint length and its bytes.
///
/// # Errors
///
/// [`ContainerError::LimitExceeded`] if `s` is longer than
/// [`MAX_NAME_BYTES`]; nothing is appended then.
pub fn put_str(out: &mut Vec<u8>, what: &'static str, s: &str) -> Result<(), ContainerError> {
    cap(what, s.len() as u64, MAX_NAME_BYTES)?;
    varint::write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

// ------------------------------------------------------------------ writing

/// Builds a container header: the magic/version/flags prefix, then the
/// fields in call order. [`Self::finish`] appends the header CRC.
#[derive(Debug, Clone)]
pub struct HeaderWriter {
    bytes: Vec<u8>,
}

impl HeaderWriter {
    /// Starts a header for `format` with the flags word zero.
    pub fn new(format: &Format) -> Self {
        let mut bytes = Vec::with_capacity(96);
        bytes.extend_from_slice(&format.magic);
        bytes.extend_from_slice(&format.version.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        Self { bytes }
    }

    /// Appends a length-prefixed string.
    ///
    /// # Errors
    ///
    /// As [`put_str`].
    pub fn str(&mut self, what: &'static str, s: &str) -> Result<(), ContainerError> {
        put_str(&mut self.bytes, what, s)
    }

    /// Appends a fixed-width little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a varint.
    pub fn varint(&mut self, v: u64) {
        varint::write_u64(&mut self.bytes, v);
    }

    /// The header bytes followed by their CRC-32C.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crate::crc32c(&self.bytes);
        self.bytes.extend_from_slice(&crc.to_le_bytes());
        self.bytes
    }
}

/// Writes `header`, then `payload` framed as `payload_len | payload |
/// payload_crc | footer magic`, flushes, and returns the bytes written.
///
/// # Errors
///
/// [`ContainerError::LimitExceeded`] before writing anything if the
/// payload is larger than `format.max_payload`; I/O errors.
pub fn write_framed<W: Write>(
    mut w: W,
    format: &Format,
    header: HeaderWriter,
    payload: &[u8],
) -> Result<u64, ContainerError> {
    cap("payload length", payload.len() as u64, format.max_payload)?;
    let header = header.finish();
    let len = (payload.len() as u32).to_le_bytes();
    let mut crc = Crc32c::new();
    crc.update(&len);
    crc.update(payload);
    w.write_all(&header)?;
    w.write_all(&len)?;
    w.write_all(payload)?;
    w.write_all(&crc.finish().to_le_bytes())?;
    w.write_all(&format.footer_magic)?;
    w.flush()?;
    Ok(header.len() as u64 + 4 + payload.len() as u64 + 4 + 4)
}

// ------------------------------------------------------------------ reading

/// Fills `buf` from `r`; a short read is [`ContainerError::Truncated`]
/// naming `what`.
///
/// # Errors
///
/// `Truncated` at end of stream, [`ContainerError::Io`] otherwise.
pub fn read_exact<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), ContainerError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            ContainerError::Truncated { what }
        } else {
            ContainerError::Io(e)
        }
    })
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// As [`read_exact`].
pub fn read_u32<R: Read + ?Sized>(r: &mut R, what: &'static str) -> Result<u32, ContainerError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// As [`read_exact`].
pub fn read_u64<R: Read + ?Sized>(r: &mut R, what: &'static str) -> Result<u64, ContainerError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a varint byte by byte from a stream, appending the raw bytes to
/// `raw` (for checksumming).
///
/// # Errors
///
/// [`ContainerError::BadVarint`] if the encoding is over-long; as
/// [`read_exact`] otherwise.
pub fn read_varint_stream<R: Read + ?Sized>(
    r: &mut R,
    raw: &mut Vec<u8>,
    what: &'static str,
) -> Result<u64, ContainerError> {
    let start = raw.len();
    for _ in 0..varint::MAX_VARINT_LEN {
        let mut b = [0u8; 1];
        read_exact(r, &mut b, what)?;
        raw.push(b[0]);
        if b[0] & 0x80 == 0 {
            let mut pos = 0;
            return varint::read_u64(&raw[start..], &mut pos)
                .ok_or(ContainerError::BadVarint { what });
        }
    }
    Err(ContainerError::BadVarint { what })
}

/// Reads the 4-byte footer magic and checks it against `format`.
///
/// # Errors
///
/// `BadFooterMagic`, or as [`read_exact`].
pub fn read_footer_magic<R: Read + ?Sized>(
    r: &mut R,
    format: &Format,
) -> Result<(), ContainerError> {
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic, "footer magic")?;
    if magic != format.footer_magic {
        return Err(ContainerError::BadFooterMagic);
    }
    Ok(())
}

/// Parses a container header field by field, keeping the raw bytes so
/// [`Self::finish`] can check the header CRC.
#[derive(Debug)]
pub struct HeaderReader<'r, R: Read + ?Sized> {
    r: &'r mut R,
    raw: Vec<u8>,
}

impl<'r, R: Read + ?Sized> HeaderReader<'r, R> {
    /// Reads and checks the magic, version and flags prefix. Version and
    /// flags are checked before the CRC, so an old reader fails with the
    /// actionable error even though the CRC also differs.
    ///
    /// # Errors
    ///
    /// `BadMagic`, `UnsupportedVersion`, `UnsupportedFlags`, or as
    /// [`read_exact`].
    pub fn open(r: &'r mut R, format: &Format) -> Result<Self, ContainerError> {
        let mut fixed = [0u8; 12];
        read_exact(r, &mut fixed, "header")?;
        if fixed[..8] != format.magic {
            return Err(ContainerError::BadMagic {
                expected: format.magic,
            });
        }
        let version = u16::from_le_bytes([fixed[8], fixed[9]]);
        if version != format.version {
            return Err(ContainerError::UnsupportedVersion {
                got: version,
                supported: format.version,
            });
        }
        let flags = u16::from_le_bytes([fixed[10], fixed[11]]);
        if flags != 0 {
            return Err(ContainerError::UnsupportedFlags(flags));
        }
        Ok(Self {
            r,
            raw: fixed.to_vec(),
        })
    }

    /// Reads a length-prefixed UTF-8 string of at most [`MAX_NAME_BYTES`].
    ///
    /// # Errors
    ///
    /// `LimitExceeded` before allocating, `BadName`, or as
    /// [`read_varint_stream`].
    pub fn str(&mut self, what: &'static str) -> Result<String, ContainerError> {
        let len = self.varint(what)?;
        cap(what, len, MAX_NAME_BYTES)?;
        let start = self.raw.len();
        self.raw.resize(start + len as usize, 0);
        read_exact(self.r, &mut self.raw[start..], what)?;
        String::from_utf8(self.raw[start..].to_vec()).map_err(|_| ContainerError::BadName)
    }

    /// Reads a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`read_exact`].
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        let v = read_u64(self.r, what)?;
        self.raw.extend_from_slice(&v.to_le_bytes());
        Ok(v)
    }

    /// Reads a varint.
    ///
    /// # Errors
    ///
    /// As [`read_varint_stream`].
    pub fn varint(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        read_varint_stream(self.r, &mut self.raw, what)
    }

    /// Reads the header CRC and checks it against every byte read so far;
    /// returns the header length including the CRC.
    ///
    /// # Errors
    ///
    /// `HeaderChecksum`, or as [`read_exact`].
    pub fn finish(self) -> Result<u64, ContainerError> {
        let stored = read_u32(self.r, "header checksum")?;
        let computed = crate::crc32c(&self.raw);
        if stored != computed {
            return Err(ContainerError::HeaderChecksum { stored, computed });
        }
        Ok(self.raw.len() as u64 + 4)
    }
}

/// Reads the frame that follows a header: the payload length (capped by
/// `format.max_payload` before allocating), the payload, its CRC, the
/// footer magic, and end of stream. Returns the checked payload.
///
/// # Errors
///
/// `LimitExceeded`, `PayloadChecksum`, `BadFooterMagic`, `TrailingBytes`,
/// or as [`read_exact`].
pub fn read_payload<R: Read + ?Sized>(
    r: &mut R,
    format: &Format,
) -> Result<Vec<u8>, ContainerError> {
    let len = read_u32(r, "payload length")?;
    cap("payload length", u64::from(len), format.max_payload)?;
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload, "payload")?;
    let stored = read_u32(r, "payload checksum")?;
    let mut crc = Crc32c::new();
    crc.update(&len.to_le_bytes());
    crc.update(&payload);
    let computed = crc.finish();
    if stored != computed {
        return Err(ContainerError::PayloadChecksum { stored, computed });
    }
    read_footer_magic(r, format)?;
    let mut rest = [0u8; 64];
    let mut trailing = 0u64;
    loop {
        let n = r.read(&mut rest)?;
        if n == 0 {
            break;
        }
        trailing += n as u64;
    }
    if trailing != 0 {
        return Err(ContainerError::TrailingBytes { count: trailing });
    }
    Ok(payload)
}

/// A bounds-checked reader over an in-memory payload or section.
#[derive(Debug, Clone)]
pub struct SliceCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes a varint.
    ///
    /// # Errors
    ///
    /// [`ContainerError::BadVarint`] naming `what`.
    pub fn varint(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        varint::read_u64(self.buf, &mut self.pos).ok_or(ContainerError::BadVarint { what })
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Truncated`] naming `what`.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ContainerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ContainerError::Truncated { what })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Decodes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ContainerError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Decodes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`Self::bytes`].
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Decodes a length-prefixed UTF-8 string of at most
    /// [`MAX_NAME_BYTES`].
    ///
    /// # Errors
    ///
    /// `BadVarint`, `LimitExceeded`, `Truncated` or `BadName`.
    pub fn str(&mut self, what: &'static str) -> Result<String, ContainerError> {
        let len = self.varint(what)?;
        cap(what, len, MAX_NAME_BYTES)?;
        let b = self.bytes(len as usize, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| ContainerError::BadName)
    }

    /// `Ok` iff every byte was consumed.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Malformed`] naming `what`.
    pub fn finish(self, what: &'static str) -> Result<(), ContainerError> {
        if self.remaining() != 0 {
            return Err(ContainerError::Malformed { what });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format {
        magic: *b"COBRATST",
        footer_magic: *b"TSTX",
        version: 1,
        max_payload: 64,
    };

    fn sample() -> Vec<u8> {
        let mut h = HeaderWriter::new(&TEST);
        h.str("name", "abc").unwrap();
        h.u64(0x0102_0304_0506_0708);
        h.varint(300);
        let mut out = Vec::new();
        write_framed(&mut out, &TEST, h, b"payload").unwrap();
        out
    }

    fn read(bytes: &[u8]) -> Result<(String, u64, u64, Vec<u8>), ContainerError> {
        let mut r = bytes;
        let mut h = HeaderReader::open(&mut r, &TEST)?;
        let name = h.str("name")?;
        let fixed = h.u64("fixed")?;
        let v = h.varint("varint")?;
        h.finish()?;
        Ok((name, fixed, v, read_payload(&mut r, &TEST)?))
    }

    #[test]
    fn frame_round_trips_with_documented_layout() {
        let bytes = sample();
        let header_len = 12 + 4 + 8 + 2;
        assert_eq!(&bytes[..8], b"COBRATST");
        assert_eq!(&bytes[8..12], &[1, 0, 0, 0]);
        assert_eq!(
            bytes[header_len..header_len + 4],
            crate::crc32c(&bytes[..header_len]).to_le_bytes()
        );
        assert_eq!(&bytes[bytes.len() - 4..], b"TSTX");
        assert_eq!(bytes.len(), header_len + 4 + 4 + 7 + 4 + 4);
        let (name, fixed, v, payload) = read(&bytes).unwrap();
        assert_eq!(
            (name.as_str(), fixed, v, &payload[..]),
            ("abc", 0x0102_0304_0506_0708, 300, &b"payload"[..])
        );
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(read(&bad).is_err(), "flip at {i}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            read(&long),
            Err(ContainerError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn writers_enforce_the_reader_caps() {
        let mut h = HeaderWriter::new(&TEST);
        let long = "x".repeat(MAX_NAME_BYTES as usize + 1);
        assert!(matches!(
            h.str("name", &long),
            Err(ContainerError::LimitExceeded { got: 4097, .. })
        ));
        h.str("name", &long[1..]).expect("exactly at the cap");
        let mut out = Vec::new();
        let err = write_framed(&mut out, &TEST, h, &[0; 65]).unwrap_err();
        assert!(matches!(
            err,
            ContainerError::LimitExceeded {
                what: "payload length",
                got: 65,
                max: 64
            }
        ));
        assert!(out.is_empty(), "nothing is written on a cap failure");
    }

    #[test]
    fn errors_name_the_format_and_field() {
        let mut bad = sample();
        bad[0] = b'X';
        let e = read(&bad).unwrap_err();
        assert!(e.to_string().contains("COBRATST"), "{e}");
        let e = same("design", "B2", "TAGE-L").unwrap_err();
        let s = e.to_string();
        assert!(
            s.contains("design") && s.contains("B2") && s.contains("TAGE-L"),
            "{s}"
        );
        assert!(same("insts", 3u64, 3).is_ok());
    }

    #[test]
    fn slice_cursor_is_bounds_checked() {
        let mut buf = Vec::new();
        put_str(&mut buf, "s", "hi").unwrap();
        buf.extend_from_slice(&7u32.to_le_bytes());
        let mut c = SliceCursor::new(&buf);
        assert_eq!(c.str("s").unwrap(), "hi");
        assert_eq!(c.clone().u64("u64").ok(), None);
        assert_eq!(c.u32("u32").unwrap(), 7);
        assert!(matches!(
            c.varint("v"),
            Err(ContainerError::BadVarint { what: "v" })
        ));
        c.finish("rest").unwrap();
    }
}
