//! cni-snap — crash-safe, versioned container for CNI checkpoint files.
//!
//! A sealed file wraps a compact-JSON payload in magic, format version,
//! payload length and a CRC-32 trailer, and is written atomically via
//! temp-file + rename so a crash mid-write can never leave a
//! half-snapshot behind under the final name. The payload is a
//! [`serde::Value`] tree encoded and decoded by the vendored `serde_json`,
//! the same parser every other external input goes through; what goes
//! into that tree is decided by `cni::snapshot` and
//! `cni_apps::checkpoint`.
//!
//! Layout of a sealed snapshot (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CNISNAP\0"
//! 8       4     u32    container format version
//! 12      8     u64    payload length L
//! 20      L     payload: compact JSON
//! 20+L    4     u32    CRC-32 (IEEE, `cni_atm::crc::crc32`) of the payload
//! ```
//!
//! Every read is bounds-checked and returns a typed [`SnapError`]; no input,
//! however corrupt or truncated, may panic the decoder. Errors render as
//! rustc-style diagnostics via [`SnapError::render`].

#![deny(missing_docs)]

use cni_atm::crc::crc32;
use serde::Value;
use std::fmt;
use std::path::Path;

/// The container format version [`seal`] writes, and the only one
/// [`unseal`] reads. Version 1 held a tagged binary payload.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes identifying a CNI snapshot file.
pub const MAGIC: [u8; 8] = *b"CNISNAP\0";

/// Size in bytes of the fixed header (magic + version + payload length).
pub const HEADER_BYTES: usize = 8 + 4 + 8;

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
    /// The container format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
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
    /// The payload is not valid JSON.
    Malformed {
        /// The parser's description of the problem.
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
            SnapError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
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
            SnapError::Malformed { what } => write!(f, "malformed snapshot payload: {what}"),
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
            SnapError::UnsupportedVersion { found } if *found > FORMAT_VERSION => {
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

/// The `N` bytes of `bytes` at `offset`, or the truncation naming `what`.
fn field<const N: usize>(
    bytes: &[u8],
    offset: usize,
    what: &'static str,
) -> Result<[u8; N], SnapError> {
    bytes
        .get(offset..offset + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(SnapError::Truncated {
            offset,
            needed: N,
            have: bytes.len().saturating_sub(offset),
            what,
        })
}

/// Validate the sealed container in `bytes` and return its payload.
/// Rejects bad magic, any version but [`FORMAT_VERSION`], short files,
/// and CRC mismatches — never panics.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    let magic: [u8; 8] = field(bytes, 0, "magic")?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic {
            found: magic.to_vec(),
        });
    }
    let version = u32::from_le_bytes(field(bytes, 8, "format version")?);
    if version != FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion { found: version });
    }
    let len = u64::from_le_bytes(field(bytes, 12, "payload length")?) as usize;
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
    let expected = u32::from_le_bytes(field(body, len, "CRC trailer")?);
    let actual = crc32(payload);
    if expected != actual {
        return Err(SnapError::BadCrc { expected, actual });
    }
    Ok(payload)
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

/// Encode `v` as compact JSON, seal it and write it to `path` atomically.
/// Object fields keep the `Map`'s insertion order and floats print in
/// their shortest round-trip form, so the bytes are deterministic and
/// every finite float reads back bit for bit.
pub fn write_value(path: &Path, v: &Value) -> Result<(), SnapError> {
    let json = serde_json::to_string(v).expect("a Value tree always serializes");
    write_atomic(path, &seal(json.as_bytes()))
}

/// Read, unseal and decode a snapshot [`Value`] from `path`.
pub fn read_value(path: &Path) -> Result<Value, SnapError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    serde_json::from_slice(unseal(&bytes)?).map_err(|e| SnapError::Malformed {
        what: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Map, Number};
    use std::path::PathBuf;

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
        let inner = obj.clone();
        obj.insert("nested".to_string(), Value::Object(inner));
        Value::Object(obj)
    }

    fn sample_payload() -> Vec<u8> {
        serde_json::to_string(&sample_value()).unwrap().into_bytes()
    }

    /// A fresh scratch directory for one test.
    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cni-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `read_value` over a file holding `payload`, sealed.
    fn read_sealed(name: &str, payload: &[u8]) -> Result<Value, SnapError> {
        let dir = tmp_dir(name);
        let path = dir.join("a.cnisnap");
        std::fs::write(&path, seal(payload)).unwrap();
        let v = read_value(&path);
        std::fs::remove_dir_all(&dir).unwrap();
        v
    }

    #[test]
    fn value_round_trip_is_exact() {
        let dir = tmp_dir("round-trip");
        let (a, b) = (dir.join("a.cnisnap"), dir.join("b.cnisnap"));
        let v = sample_value();
        write_value(&a, &v).unwrap();
        let back = read_value(&a).unwrap();
        assert_eq!(format!("{v:?}"), format!("{back:?}"));
        // Determinism: writing the read-back value yields identical bytes.
        write_value(&b, &back).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn float_bits_survive() {
        let dir = tmp_dir("floats");
        let path = dir.join("f.cnisnap");
        for x in [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(u64::MAX >> 12),
            f64::MIN_POSITIVE,
            0.1,
            1.0 - f64::EPSILON / 2.0,
            1e-300,
            -2.5e300,
            f64::MAX,
        ] {
            write_value(&path, &Value::Number(Number::F64(x))).unwrap();
            match read_value(&path).unwrap() {
                Value::Number(Number::F64(y)) => assert_eq!(y.to_bits(), x.to_bits(), "{x:e}"),
                other => panic!("expected F64, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_unseal_round_trip() {
        let payload = sample_payload();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
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

    /// Any version but this build's is refused: the binary-payload v1,
    /// and one newer than this build. Each gets its own help line.
    #[test]
    fn unknown_version_is_rejected() {
        for (version, help) in [
            (1, "predates the oldest readable format"),
            (FORMAT_VERSION + 1, "written by a newer build"),
        ] {
            let mut sealed = seal(b"hello");
            sealed[8..12].copy_from_slice(&u32::to_le_bytes(version));
            match unseal(&sealed) {
                Err(e @ SnapError::UnsupportedVersion { found }) => {
                    assert_eq!(found, version);
                    assert!(e.render("ck").contains(help), "{}", e.render("ck"));
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_bit_fails_crc() {
        let mut sealed = seal(&sample_payload());
        sealed[HEADER_BYTES + 3] ^= 0x40;
        assert!(matches!(unseal(&sealed), Err(SnapError::BadCrc { .. })));
    }

    #[test]
    fn truncation_at_every_64_byte_boundary_errors_cleanly() {
        let sealed = seal(&sample_payload());
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

    /// A JSON value's first byte says what it is; one no value starts
    /// with is malformed, not a panic.
    #[test]
    fn corrupt_value_tag_is_malformed_not_panic() {
        let mut payload = sample_payload();
        payload[0] = 0xFF;
        assert!(matches!(
            read_sealed("tag", &payload),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        match read_sealed("deep", "[".repeat(2000).as_bytes()) {
            Err(SnapError::Malformed { what }) => {
                assert!(what.contains("nesting deeper than 512 levels"), "{what}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = sample_payload();
        payload.push(b'0');
        assert!(matches!(
            read_sealed("trailing", &payload),
            Err(SnapError::Malformed { .. })
        ));
    }

    /// A `\u` escape of a high surrogate must be followed by one of a low
    /// surrogate. One followed by `\u0000` used to overflow an addition
    /// (a panic in debug builds, a wrong character in release builds).
    #[test]
    fn an_unpaired_surrogate_is_malformed() {
        match read_sealed("surrogate", br#""\uD800\u0000""#) {
            Err(SnapError::Malformed { what }) => assert!(what.contains("surrogate"), "{what}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let pair = read_sealed("pair", br#""\uD83D\uDE00""#).unwrap();
        assert_eq!(pair.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn write_atomic_leaves_no_tmp_behind() {
        let dir = tmp_dir("atomic");
        let path = dir.join("a.cnisnap");
        write_value(&path, &sample_value()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[8..12], &FORMAT_VERSION.to_le_bytes());
        assert_eq!(unseal(&bytes).unwrap(), &sample_payload()[..]);
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

    /// A file cut inside the header names the field it cut.
    #[test]
    fn a_cut_header_names_the_field() {
        let sealed = seal(b"{}");
        for (cut, offset, what) in [
            (3, 0, "magic"),
            (10, 8, "format version"),
            (19, 12, "payload length"),
        ] {
            match unseal(&sealed[..cut]) {
                Err(SnapError::Truncated {
                    offset: o,
                    have,
                    what: w,
                    ..
                }) => assert_eq!((o, have, w), (offset, cut - offset, what)),
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
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
