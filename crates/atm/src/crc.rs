//! CRC-32 as used by the AAL5 trailer (IEEE 802.3 polynomial 0x04C11DB7,
//! reflected form 0xEDB88320, initial value all-ones, final complement).
//!
//! Slicing-by-8: eight derived lookup tables let the inner loop consume
//! eight bytes per step instead of one, which matters because the CRC is
//! the single largest per-byte cost on the segmentation/reassembly hot
//! path (cni-bench's `atm.aal5.*` metrics track it).
//!
//! Zero runs: appending `k` zero bytes maps the CRC register through a
//! fixed linear operator over GF(2), so [`Crc32::update`] folds each run
//! of zero 8-byte words through precomputed operators for 1, 2, 4, ...
//! 512 words — four table lookups per set bit of the run length instead
//! of eight per word. The engine's go-back-N frames are zero fill past
//! their first 16 bytes, so this is most of the work of segmenting and
//! checking one. Both tables are computed once at first use, and the
//! result is the exact CRC-32 of the bytes given (the tests pin the
//! standard check vectors and a bitwise reference).

use std::sync::OnceLock;

const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// Zero-extension operators: `zero[i]` appends `8 << i` zero bytes.
const ZERO_OPS: usize = 10;

/// A linear map on the CRC register, byte-sliced: the image of a register
/// is the XOR of one entry per register byte.
type Operator = [[u32; 256]; 4];

struct Tables {
    slice: [[u32; 256]; 8],
    zero: [Operator; ZERO_OPS],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Box<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new(Tables {
            slice: [[0u32; 256]; 8],
            zero: [[[0u32; 256]; 4]; ZERO_OPS],
        });
        let s = &mut t.slice;
        for (i, e) in s[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ POLY_REFLECTED
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        // s[k][i] extends s[0] by k extra zero bytes, so eight parallel
        // lookups fold one u64 of input into the running state at once.
        for k in 1..8 {
            for i in 0..256 {
                let prev = s[k - 1][i];
                s[k][i] = (prev >> 8) ^ s[0][(prev & 0xFF) as usize];
            }
        }
        // One zero word is the slicing step with nothing but the register
        // to fold; each further operator is the previous one applied twice.
        t.zero[0] = [s[7], s[6], s[5], s[4]];
        for i in 1..ZERO_OPS {
            let half = t.zero[i - 1];
            for (byte, row) in half.iter().enumerate() {
                for (v, &x) in row.iter().enumerate() {
                    t.zero[i][byte][v] = apply(&half, x);
                }
            }
        }
        t
    })
}

#[inline]
fn apply(op: &Operator, s: u32) -> u32 {
    op[0][(s & 0xFF) as usize]
        ^ op[1][((s >> 8) & 0xFF) as usize]
        ^ op[2][((s >> 16) & 0xFF) as usize]
        ^ op[3][(s >> 24) as usize]
}

/// The register after `words` zero 8-byte words.
fn skip_zero_words(t: &Tables, mut s: u32, mut words: usize) -> u32 {
    let top = ZERO_OPS - 1;
    while words >> top > 1 {
        s = apply(&t.zero[top], s);
        words -= 1 << top;
    }
    for op in &t.zero {
        if words == 0 {
            break;
        }
        if words & 1 != 0 {
            s = apply(op, s);
        }
        words >>= 1;
    }
    s
}

/// Streaming CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let s8 = &t.slice;
        let mut chunks = data.chunks_exact(8);
        let mut s = self.state;
        let mut zeros = 0;
        for c in chunks.by_ref() {
            let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            if w == 0 {
                zeros += 1;
                continue;
            }
            if zeros > 0 {
                s = skip_zero_words(t, s, zeros);
                zeros = 0;
            }
            // Fold all eight bytes of the word at once.
            let lo = w as u32 ^ s;
            let hi = (w >> 32) as u32;
            s = s8[7][(lo & 0xFF) as usize]
                ^ s8[6][((lo >> 8) & 0xFF) as usize]
                ^ s8[5][((lo >> 16) & 0xFF) as usize]
                ^ s8[4][(lo >> 24) as usize]
                ^ s8[3][(hi & 0xFF) as usize]
                ^ s8[2][((hi >> 8) & 0xFF) as usize]
                ^ s8[1][((hi >> 16) & 0xFF) as usize]
                ^ s8[0][(hi >> 24) as usize];
        }
        s = skip_zero_words(t, s, zeros);
        for &b in chunks.remainder() {
            s = (s >> 8) ^ s8[0][((s ^ b as u32) & 0xFF) as usize];
        }
        self.state = s;
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook one-bit-at-a-time CRC-32, sharing nothing with the
    /// table-driven code under test.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ POLY_REFLECTED
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 ("CRC-32/ISO-HDLC") check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let before = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), before);
    }

    #[test]
    fn zero_runs_of_every_operator_size_match_the_bitwise_reference() {
        // Runs one word either side of each operator size, past the
        // largest (where the top operator repeats), and a maximal AAL5
        // image, between non-zero bytes at every alignment.
        let mut runs: Vec<usize> = (0..=ZERO_OPS + 2)
            .flat_map(|i| {
                let w = 8usize << i;
                [w - 8, w - 1, w, w + 1, w + 8]
            })
            .collect();
        runs.push(crate::aal5::AAL5_MAX_PDU);
        for run in runs {
            for lead in 0..9 {
                let mut data = vec![0u8; lead + run + 3];
                data[0] = 0xA5;
                data[lead + run] = 0x5A;
                assert_eq!(crc32(&data), bitwise(&data), "lead {lead}, run {run}");
                assert_eq!(
                    crc32(&data[1..]),
                    bitwise(&data[1..]),
                    "lead {lead}, run {run}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        fn sparse_buffers_match_the_bitwise_reference(
            len in 0usize..5001,
            offset in 0usize..8,
            marks in collection::vec((0usize..5001, 1u8..=255), 0..8),
            cuts in collection::vec(0usize..5001, 0..6),
        ) {
            let mut buf = vec![0u8; offset + len];
            for &(at, v) in &marks {
                if len > 0 {
                    buf[offset + at % len] = v;
                }
            }
            let data = &buf[offset..];
            let want = bitwise(data);
            prop_assert_eq!(crc32(data), want);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for &to in cuts.iter().chain(std::iter::once(&len)) {
                c.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(c.finish(), want);
        }
    }
}
