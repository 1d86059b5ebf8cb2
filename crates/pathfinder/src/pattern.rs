//! Classification patterns: sequences of masked field comparisons.

use serde::{Deserialize, Serialize};

/// Identifier of an installed pattern, returned by
/// [`crate::Classifier::install`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PatternId(pub u32);

/// One masked comparison against a header field.
///
/// The field is `width` bytes starting at `offset` (big-endian), masked
/// with `mask` and compared with `value`. This is PATHFINDER's comparison
/// "cell": real hardware evaluates one such cell per clock. The
/// constructors below build widths 1, 2 and 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldTest {
    /// Byte offset of the field in the packet header.
    pub(crate) offset: u16,
    /// Field width in bytes: 1, 2, or 4.
    pub(crate) width: u8,
    /// Mask applied before comparison.
    pub(crate) mask: u32,
    /// Expected value (after masking).
    pub(crate) value: u32,
}

impl FieldTest {
    /// A full-width equality test on a 1-byte field.
    pub fn byte(offset: u16, value: u8) -> Self {
        FieldTest {
            offset,
            width: 1,
            mask: 0xFF,
            value: value as u32,
        }
    }

    /// A full-width equality test on a 2-byte (big-endian) field.
    pub fn u16(offset: u16, value: u16) -> Self {
        FieldTest {
            offset,
            width: 2,
            mask: 0xFFFF,
            value: value as u32,
        }
    }

    /// A full-width equality test on a 4-byte (big-endian) field.
    pub fn u32(offset: u16, value: u32) -> Self {
        FieldTest {
            offset,
            width: 4,
            mask: 0xFFFF_FFFF,
            value,
        }
    }

    /// A masked test on a 1-byte field.
    pub fn masked_byte(offset: u16, mask: u8, value: u8) -> Self {
        FieldTest {
            offset,
            width: 1,
            mask: mask as u32,
            value: (value & mask) as u32,
        }
    }

    /// Extract and mask this test's field from `packet`; `None` if the
    /// packet is too short.
    pub fn extract(&self, packet: &[u8]) -> Option<u32> {
        let start = self.offset as usize;
        let field = packet.get(start..start + self.width as usize)?;
        let raw = field.iter().fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
        Some(raw & self.mask)
    }

    /// Does `packet` satisfy this test?
    pub fn matches(&self, packet: &[u8]) -> bool {
        self.extract(packet) == Some(self.value)
    }

    /// The comparison *key* (offset, width, mask): two tests with the same
    /// key examine the same field and can share a decision-DAG node.
    pub fn key(&self) -> (u16, u8, u32) {
        (self.offset, self.width, self.mask)
    }
}

/// A classification pattern: all tests must match, in order.
///
/// `priority` breaks ties when several patterns match one packet — the
/// highest priority wins, then the longest pattern, then lowest id
/// (deterministic).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pattern {
    /// The comparison cells, evaluated in order.
    pub tests: Vec<FieldTest>,
    /// Tie-break priority; higher wins.
    pub priority: u8,
}

impl Pattern {
    /// A pattern from tests with default (zero) priority.
    pub fn new(tests: Vec<FieldTest>) -> Self {
        Pattern { tests, priority: 0 }
    }

    /// Set the priority (builder style).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Does `packet` satisfy every test?
    pub fn matches(&self, packet: &[u8]) -> bool {
        self.tests.iter().all(|t| t.matches(packet))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_test_extract_and_match() {
        let t = FieldTest::byte(2, 0xAB);
        assert!(t.matches(&[0, 0, 0xAB, 9]));
        assert!(!t.matches(&[0, 0, 0xAC, 9]));
        assert!(!t.matches(&[0, 0])); // too short
    }

    #[test]
    fn u16_and_u32_are_big_endian() {
        assert!(FieldTest::u16(0, 0x1234).matches(&[0x12, 0x34]));
        assert!(FieldTest::u32(1, 0xDEADBEEF).matches(&[0, 0xDE, 0xAD, 0xBE, 0xEF]));
    }

    #[test]
    fn masked_byte_ignores_unmasked_bits() {
        let t = FieldTest::masked_byte(0, 0xF0, 0x50);
        assert!(t.matches(&[0x5A]));
        assert!(t.matches(&[0x5F]));
        assert!(!t.matches(&[0x6A]));
    }

    #[test]
    fn pattern_requires_all_tests() {
        let p = Pattern::new(vec![FieldTest::byte(0, 1), FieldTest::byte(1, 2)]);
        assert!(p.matches(&[1, 2]));
        assert!(!p.matches(&[1, 3]));
        assert!(!p.matches(&[0, 2]));
    }

    #[test]
    fn key_ignores_value() {
        let a = FieldTest::byte(3, 1);
        let b = FieldTest::byte(3, 200);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), FieldTest::u16(3, 1).key());
    }
}
