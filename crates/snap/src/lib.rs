//! cni-snap — crash-safe, schema-versioned snapshot container for the CNI
//! simulator.
//!
//! This crate owns the *container* format: a sealed byte envelope with magic,
//! format version, payload length and CRC-32 trailer, written atomically via
//! temp-file + rename so a crash mid-write can never leave a half-snapshot
//! behind under the final name. It also provides the deterministic binary
//! codec that turns a [`serde::Value`] tree into bytes and back; all
//! *semantic* encoding of simulator state (what goes into that tree) lives in
//! `cni::snapshot`.
//!
//! Layout of a sealed snapshot (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CNISNAP\0"
//! 8       4     u32    container format version
//! 12      8     u64    payload length L
//! 20      L     payload bytes
//! 20+L    4     u32    CRC-32 (IEEE) of the payload
//! ```
//!
//! Every read is bounds-checked and returns a typed [`SnapError`]; no input,
//! however corrupt or truncated, may panic the decoder. Errors render as
//! rustc-style diagnostics via [`SnapError::render`].

#![deny(missing_docs)]

use serde::{Map, Number, Value};
use std::fmt;
use std::path::Path;

/// Current container format version written by [`seal`].
pub const FORMAT_VERSION: u32 = 1;

/// Oldest container format version [`unseal`] still accepts.
pub const OLDEST_READABLE_VERSION: u32 = 1;

/// Magic bytes identifying a CNI snapshot file.
pub const MAGIC: [u8; 8] = *b"CNISNAP\0";

/// Size in bytes of the fixed header (magic + version + payload length).
pub const HEADER_BYTES: usize = 8 + 4 + 8;

/// Maximum nesting depth [`decode_value`] accepts before declaring the
/// input malformed (guards against stack exhaustion on crafted files).
const MAX_DEPTH: u32 = 512;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Host I/O failure (open/read/write/rename).
    Io {
        /// Path the operation touched.
        path: String,
        /// Stringified OS error.
        detail: String,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// The container format version is outside the readable range.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Oldest version this build can read.
        oldest: u32,
        /// Newest version this build can read.
        newest: u32,
    },
    /// The input ended before a field could be read in full.
    Truncated {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
        /// What was being read.
        what: &'static str,
    },
    /// The payload CRC-32 does not match the trailer.
    BadCrc {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
    /// Structurally invalid payload (bad tag, depth, or field shape).
    Malformed {
        /// Byte offset of the offending data, when known.
        offset: usize,
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io { path, detail } => write!(f, "I/O error on `{path}`: {detail}"),
            SnapError::BadMagic { found } => {
                write!(f, "not a CNI snapshot (bad magic {found:02x?})")
            }
            SnapError::UnsupportedVersion {
                found,
                oldest,
                newest,
            } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {oldest}..={newest})"
            ),
            SnapError::Truncated {
                offset,
                needed,
                have,
                what,
            } => write!(
                f,
                "truncated snapshot: {what} at offset {offset} needs {needed} bytes, only {have} available"
            ),
            SnapError::BadCrc { expected, actual } => write!(
                f,
                "payload checksum mismatch: trailer says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            SnapError::Malformed { offset, what } => {
                write!(f, "malformed snapshot payload at offset {offset}: {what}")
            }
        }
    }
}

impl SnapError {
    /// Render a rustc-style multi-line diagnostic for this error as it
    /// relates to `path`.
    pub fn render(&self, path: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("error: {self}\n"));
        out.push_str(&format!("  --> {path}\n"));
        let help = match self {
            SnapError::Io { .. } => {
                "check that the path exists and is readable/writable".to_string()
            }
            SnapError::BadMagic { .. } => {
                "expected a file produced by `cni-run --checkpoint-every`".to_string()
            }
            SnapError::UnsupportedVersion { found, newest, .. } if found > newest => {
                "this snapshot was written by a newer build; upgrade cni-run".to_string()
            }
            SnapError::UnsupportedVersion { .. } => {
                "this snapshot predates the oldest readable format; re-run from scratch".to_string()
            }
            SnapError::Truncated { .. } => {
                "the file was cut short (torn write or partial copy); use an older checkpoint"
                    .to_string()
            }
            SnapError::BadCrc { .. } => {
                "the payload was corrupted on disk; use an older checkpoint".to_string()
            }
            SnapError::Malformed { .. } => {
                "the container is intact but the payload is not a valid snapshot tree".to_string()
            }
        };
        out.push_str(&format!("  = help: {help}\n"));
        out
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-driven, no external deps.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Binary writer / reader primitives
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the accumulated bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed byte string (u64 length).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every method
/// returns [`SnapError::Truncated`] instead of panicking when the input is
/// short.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(SnapError::Truncated {
                offset: self.pos,
                needed: n,
                have: self.remaining(),
                what,
            }),
        }
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, SnapError> {
        let s = self.take(2, what)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, SnapError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, SnapError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(i64::from_le_bytes(b))
    }

    /// Read a little-endian u128.
    pub fn u128(&mut self, what: &'static str) -> Result<u128, SnapError> {
        let s = self.take(16, what)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(u128::from_le_bytes(b))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, SnapError> {
        let len = self.u64(what)? as usize;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                offset: self.pos,
                needed: len,
                have: self.remaining(),
                what,
            });
        }
        Ok(self.take(len, what)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, SnapError> {
        let offset = self.pos;
        let raw = self.bytes(what)?;
        String::from_utf8(raw).map_err(|_| SnapError::Malformed {
            offset,
            what: format!("{what}: invalid UTF-8"),
        })
    }
}

// ---------------------------------------------------------------------------
// Deterministic binary Value codec
// ---------------------------------------------------------------------------

mod tag {
    pub const NULL: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const U64: u8 = 2;
    pub const I64: u8 = 3;
    pub const F64: u8 = 4;
    pub const STRING: u8 = 5;
    pub const ARRAY: u8 = 6;
    pub const OBJECT: u8 = 7;
}

/// Encode a [`Value`] tree into `w`. The encoding is fully deterministic:
/// object fields are written in the `Map`'s insertion order (the vendored
/// serde `Map` is insertion-ordered, never hashed) and floats are written as
/// raw IEEE-754 bits, so encode/decode round-trips are exact.
pub fn encode_value(v: &Value, w: &mut Writer) {
    match v {
        Value::Null => w.u8(tag::NULL),
        Value::Bool(b) => {
            w.u8(tag::BOOL);
            w.u8(u8::from(*b));
        }
        Value::Number(n) => match *n {
            Number::U64(x) => {
                w.u8(tag::U64);
                w.u64(x);
            }
            Number::I64(x) => {
                w.u8(tag::I64);
                w.i64(x);
            }
            Number::F64(x) => {
                w.u8(tag::F64);
                w.u64(x.to_bits());
            }
        },
        Value::String(s) => {
            w.u8(tag::STRING);
            w.str(s);
        }
        Value::Array(items) => {
            w.u8(tag::ARRAY);
            w.u64(items.len() as u64);
            for item in items {
                encode_value(item, w);
            }
        }
        Value::Object(map) => {
            w.u8(tag::OBJECT);
            w.u64(map.entries().len() as u64);
            for (k, item) in map.entries() {
                w.str(k);
                encode_value(item, w);
            }
        }
    }
}

fn decode_value_at(r: &mut Reader<'_>, depth: u32) -> Result<Value, SnapError> {
    if depth > MAX_DEPTH {
        return Err(SnapError::Malformed {
            offset: r.pos(),
            what: format!("value nesting exceeds {MAX_DEPTH} levels"),
        });
    }
    let offset = r.pos();
    let t = r.u8("value tag")?;
    match t {
        tag::NULL => Ok(Value::Null),
        tag::BOOL => Ok(Value::Bool(r.u8("bool value")? != 0)),
        tag::U64 => Ok(Value::Number(Number::U64(r.u64("u64 value")?))),
        tag::I64 => Ok(Value::Number(Number::I64(r.i64("i64 value")?))),
        tag::F64 => Ok(Value::Number(Number::F64(f64::from_bits(
            r.u64("f64 bits")?,
        )))),
        tag::STRING => Ok(Value::String(r.str("string value")?)),
        tag::ARRAY => {
            let len = r.u64("array length")? as usize;
            // Each element costs at least one tag byte, so a length larger
            // than the remaining input is corrupt, not just big.
            if len > r.remaining() {
                return Err(SnapError::Malformed {
                    offset,
                    what: format!(
                        "array claims {len} elements with {} bytes left",
                        r.remaining()
                    ),
                });
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_value_at(r, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        tag::OBJECT => {
            let len = r.u64("object length")? as usize;
            if len > r.remaining() {
                return Err(SnapError::Malformed {
                    offset,
                    what: format!(
                        "object claims {len} fields with {} bytes left",
                        r.remaining()
                    ),
                });
            }
            let mut map = Map::new();
            for _ in 0..len {
                let k = r.str("object key")?;
                let v = decode_value_at(r, depth + 1)?;
                map.insert(k, v);
            }
            Ok(Value::Object(map))
        }
        other => Err(SnapError::Malformed {
            offset,
            what: format!("unknown value tag {other}"),
        }),
    }
}

/// Decode one [`Value`] from `r`. Inverse of [`encode_value`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, SnapError> {
    decode_value_at(r, 0)
}

/// Encode a [`Value`] straight to bytes.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut w = Writer::new();
    encode_value(v, &mut w);
    w.into_inner()
}

/// Decode a [`Value`] from bytes, requiring the input to be fully consumed.
pub fn value_from_bytes(bytes: &[u8]) -> Result<Value, SnapError> {
    let mut r = Reader::new(bytes);
    let v = decode_value(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapError::Malformed {
            offset: r.pos(),
            what: format!("{} trailing bytes after value", r.remaining()),
        });
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Sealed container
// ---------------------------------------------------------------------------

/// Wrap `payload` in the sealed container: magic, format version, length,
/// payload, CRC-32 trailer.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validate the sealed container in `bytes` and return `(version, payload)`.
/// Rejects bad magic, out-of-range versions, short files, and CRC
/// mismatches — never panics.
pub fn unseal(bytes: &[u8]) -> Result<(u32, &[u8]), SnapError> {
    let magic = bytes.get(..8).ok_or(SnapError::Truncated {
        offset: 0,
        needed: 8,
        have: bytes.len(),
        what: "magic",
    })?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic {
            found: magic.to_vec(),
        });
    }
    let mut r = Reader::new(&bytes[8..]);
    let version = r.u32("format version").map_err(|e| bump(e, 8))?;
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(SnapError::UnsupportedVersion {
            found: version,
            oldest: OLDEST_READABLE_VERSION,
            newest: FORMAT_VERSION,
        });
    }
    let len = r.u64("payload length").map_err(|e| bump(e, 8))? as usize;
    let body = &bytes[HEADER_BYTES..];
    // A forged length near `usize::MAX` saturates here instead of wrapping
    // past the check below.
    let needed = len.saturating_add(4);
    if body.len() < needed {
        return Err(SnapError::Truncated {
            offset: HEADER_BYTES,
            needed,
            have: body.len(),
            what: "payload + CRC trailer",
        });
    }
    let payload = &body[..len];
    let trailer = &body[len..len + 4];
    let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = crc32(payload);
    if expected != actual {
        return Err(SnapError::BadCrc { expected, actual });
    }
    Ok((version, payload))
}

/// Shift a [`SnapError::Truncated`] offset by `by` (for errors produced by a
/// sub-reader that started mid-file).
fn bump(e: SnapError, by: usize) -> SnapError {
    match e {
        SnapError::Truncated {
            offset,
            needed,
            have,
            what,
        } => SnapError::Truncated {
            offset: offset + by,
            needed,
            have,
            what,
        },
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Crash-safe file I/O
// ---------------------------------------------------------------------------

fn io_err(path: &Path, e: std::io::Error) -> SnapError {
    SnapError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Write `bytes` to `path` crash-safely: the data lands in `<path>.tmp`
/// first and is renamed into place only once fully written, so readers
/// either see the old snapshot or the complete new one, never a torn write.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Seal `payload` and write it to `path` atomically.
pub fn write_sealed(path: &Path, payload: &[u8]) -> Result<(), SnapError> {
    write_atomic(path, &seal(payload))
}

/// Read a sealed snapshot from `path`, returning `(version, payload)`.
pub fn read_sealed(path: &Path) -> Result<(u32, Vec<u8>), SnapError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let (version, payload) = unseal(&bytes)?;
    Ok((version, payload.to_vec()))
}

/// Encode `v`, seal it and write it to `path` atomically.
pub fn write_value(path: &Path, v: &Value) -> Result<(), SnapError> {
    write_sealed(path, &value_to_bytes(v))
}

/// Read, unseal and decode a snapshot [`Value`] from `path`.
pub fn read_value(path: &Path) -> Result<Value, SnapError> {
    let (_version, payload) = read_sealed(path)?;
    value_from_bytes(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value() -> Value {
        let mut obj = Map::new();
        obj.insert("name".to_string(), Value::String("jacobi".to_string()));
        obj.insert("events".to_string(), Value::Number(Number::U64(12345)));
        obj.insert("delta".to_string(), Value::Number(Number::I64(-7)));
        obj.insert("prob".to_string(), Value::Number(Number::F64(0.05)));
        obj.insert("live".to_string(), Value::Bool(true));
        obj.insert("none".to_string(), Value::Null);
        obj.insert(
            "ring".to_string(),
            Value::Array(vec![
                Value::Number(Number::U64(1)),
                Value::String("two".to_string()),
                Value::Array(vec![Value::Bool(false)]),
            ]),
        );
        Value::Object(obj)
    }

    #[test]
    fn value_round_trip_is_exact() {
        let v = sample_value();
        let bytes = value_to_bytes(&v);
        let back = value_from_bytes(&bytes).unwrap();
        assert_eq!(format!("{v:?}"), format!("{back:?}"));
        // Determinism: encoding twice yields identical bytes.
        assert_eq!(bytes, value_to_bytes(&back));
    }

    #[test]
    fn float_bits_survive() {
        for bits in [
            0u64,
            1,
            f64::NAN.to_bits(),
            (-0.0f64).to_bits(),
            u64::MAX >> 12,
        ] {
            let v = Value::Number(Number::F64(f64::from_bits(bits)));
            let back = value_from_bytes(&value_to_bytes(&v)).unwrap();
            match back {
                Value::Number(Number::F64(x)) => assert_eq!(x.to_bits(), bits),
                other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn seal_unseal_round_trip() {
        let payload = value_to_bytes(&sample_value());
        let sealed = seal(&payload);
        let (version, got) = unseal(&sealed).unwrap();
        assert_eq!(version, FORMAT_VERSION);
        assert_eq!(got, &payload[..]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut sealed = seal(b"hello");
        sealed[0] = b'X';
        assert!(matches!(unseal(&sealed), Err(SnapError::BadMagic { .. })));
        // A completely unrelated file.
        assert!(matches!(
            unseal(b"{\"version\":5}"),
            Err(SnapError::BadMagic { .. })
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut sealed = seal(b"hello");
        sealed[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match unseal(&sealed) {
            Err(SnapError::UnsupportedVersion { found, .. }) => {
                assert_eq!(found, FORMAT_VERSION + 1)
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn flipped_payload_bit_fails_crc() {
        let payload = value_to_bytes(&sample_value());
        let mut sealed = seal(&payload);
        sealed[HEADER_BYTES + 3] ^= 0x40;
        assert!(matches!(unseal(&sealed), Err(SnapError::BadCrc { .. })));
    }

    #[test]
    fn truncation_at_every_64_byte_boundary_errors_cleanly() {
        let payload = value_to_bytes(&sample_value());
        let sealed = seal(&payload);
        assert!(sealed.len() > 128, "fixture too small to exercise framing");
        let mut cut = 0;
        while cut < sealed.len() {
            let torn = &sealed[..cut];
            let r = unseal(torn);
            assert!(
                r.is_err(),
                "truncation to {cut} bytes of {} must not parse",
                sealed.len()
            );
            cut += 64;
        }
    }

    #[test]
    fn corrupt_value_tag_is_malformed_not_panic() {
        let mut bytes = value_to_bytes(&sample_value());
        bytes[0] = 0xFF;
        assert!(matches!(
            value_from_bytes(&bytes),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn oversized_array_claim_is_malformed() {
        let mut w = Writer::new();
        w.u8(6); // array tag
        w.u64(u64::MAX); // absurd length
        assert!(matches!(
            value_from_bytes(&w.into_inner()),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut w = Writer::new();
        for _ in 0..2000 {
            w.u8(6); // array tag
            w.u64(1); // one element
        }
        w.u8(0); // innermost null
        assert!(matches!(
            value_from_bytes(&w.into_inner()),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = value_to_bytes(&sample_value());
        bytes.push(0);
        assert!(matches!(
            value_from_bytes(&bytes),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn write_atomic_leaves_no_tmp_behind() {
        let dir = std::env::temp_dir().join(format!("cni-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.cnisnap");
        write_sealed(&path, b"payload").unwrap();
        let (v, got) = read_sealed(&path).unwrap();
        assert_eq!(v, FORMAT_VERSION);
        assert_eq!(got, b"payload");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A header whose payload length is forged near `u64::MAX`, over a
    /// 16-byte body: the length check must not wrap, so every build
    /// reports truncation instead of slicing past the file.
    #[test]
    fn a_forged_payload_length_is_truncation_not_a_panic() {
        for len in [u64::MAX - 1, u64::MAX, u64::MAX - 3, 13] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&[0; 16]);
            assert_eq!(bytes.len(), 36);
            match unseal(&bytes) {
                Err(SnapError::Truncated {
                    offset: HEADER_BYTES,
                    needed,
                    have: 16,
                    ..
                }) => assert_eq!(needed, (len as usize).saturating_add(4)),
                other => panic!("length {len}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn reader_primitives_report_truncation() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16("x").unwrap(), 0x0201);
        match r.u32("wide field") {
            Err(SnapError::Truncated {
                offset,
                needed,
                have,
                what,
            }) => {
                assert_eq!((offset, needed, have, what), (2, 4, 1, "wide field"));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn diagnostics_render_rustc_style() {
        let e = SnapError::BadCrc {
            expected: 1,
            actual: 2,
        };
        let msg = e.render("ck/job-3.cnisnap");
        assert!(msg.starts_with("error: "));
        assert!(msg.contains("--> ck/job-3.cnisnap"));
        assert!(msg.contains("help:"));
    }
}
