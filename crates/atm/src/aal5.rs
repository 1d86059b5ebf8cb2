//! AAL5-style segmentation and reassembly (SAR).
//!
//! On transmit a PDU is padded to a whole number of cells and an 8-byte
//! trailer (UU, CPI, 16-bit length, CRC-32) is appended; the final cell is
//! marked end-of-PDU in the payload-type field. On receive, cells
//! accumulate per VCI until the end-of-PDU cell arrives, then length and
//! CRC are checked. This per-cell tax — the padding, the trailer, and the
//! 5-byte header per 48 payload bytes — is exactly the "small cell size"
//! overhead the paper's Table 5 quantifies; the [`Segmenter`] therefore also
//! supports an unrestricted (jumbo) mode that carries the whole PDU in one
//! cell.
//!
//! The data path is zero-copy past the one inherent gather/scatter each
//! direction: segmentation builds the padded PDU image once and hands every
//! cell a [`PduBuf`] *view* of it; reassembly gathers cell payloads into a
//! buffer drawn from a [`BufPool`] and freezes it into
//! the returned `PduBuf` without a copy.
//!
//! A [`CellTrain`] is a whole PDU as the faulty fabric delivers it: the
//! same padded image plus each cell's [`CellFate`], with no per-cell
//! handles. [`Reassembler::push_train`] checks the trailer on the image in
//! place when every cell arrived intact, and otherwise gathers the
//! surviving cells and flips the corrupted bits, giving exactly what
//! [`Reassembler::push`] gives for those cells one by one.

use crate::buf::{BufPool, PduBuf};
use crate::cell::{Cell, ATM_PAYLOAD_BYTES};
use crate::crc::crc32;
use cni_faults::CellFate;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Size of the AAL5 CPCS trailer.
pub const AAL5_TRAILER_BYTES: usize = 8;

/// Largest PDU a single AAL5 frame can carry (16-bit length field).
pub const AAL5_MAX_PDU: usize = u16::MAX as usize;

/// Errors detected while reassembling a PDU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReassemblyError {
    /// The CRC-32 in the trailer does not match the received bytes.
    CrcMismatch,
    /// The length field disagrees with the number of received payload bytes.
    LengthMismatch,
    /// The end-of-PDU cell arrived but fewer than `AAL5_TRAILER_BYTES` were
    /// accumulated.
    Truncated,
}

/// Segments PDUs into ATM cells.
#[derive(Clone, Copy, Debug)]
pub struct Segmenter {
    /// Payload capacity per cell. [`ATM_PAYLOAD_BYTES`] for standard ATM;
    /// `None` selects unrestricted (jumbo) mode with one cell per PDU.
    cell_payload: Option<usize>,
}

impl Segmenter {
    /// A standard ATM segmenter (48-byte cell payloads).
    pub fn standard() -> Self {
        Segmenter {
            cell_payload: Some(ATM_PAYLOAD_BYTES),
        }
    }

    /// A segmenter with a custom cell payload size (model exploration).
    pub fn with_cell_payload(bytes: usize) -> Self {
        assert!(bytes > 0, "cell payload must be positive");
        Segmenter {
            cell_payload: Some(bytes),
        }
    }

    /// The paper's mythical unrestricted-cell-size network: one cell per
    /// PDU, no padding beyond the trailer.
    pub fn unrestricted() -> Self {
        Segmenter { cell_payload: None }
    }

    /// True when in unrestricted (jumbo) mode.
    pub fn is_unrestricted(&self) -> bool {
        self.cell_payload.is_none()
    }

    /// Number of cells `pdu_len` bytes of user data will occupy.
    pub fn cell_count(&self, pdu_len: usize) -> usize {
        match self.cell_payload {
            Some(cap) => (pdu_len + AAL5_TRAILER_BYTES).div_ceil(cap),
            None => 1,
        }
    }

    /// Total wire bytes (headers + payloads + pad + trailer) for a PDU.
    pub fn wire_bytes(&self, pdu_len: usize) -> usize {
        match self.cell_payload {
            Some(cap) => self.cell_count(pdu_len) * (cap + crate::cell::ATM_HEADER_BYTES),
            None => pdu_len + AAL5_TRAILER_BYTES + crate::cell::ATM_HEADER_BYTES,
        }
    }

    /// Build the padded PDU image (`prefix` + zero fill to `len` + pad +
    /// trailer) and return it with its cell payload size. A `prefix`
    /// shorter than `len` models a frame whose tail is zero fill — the
    /// engine's protocol frames — without the caller materialising those
    /// zeros first; a longer one is cut at `len`.
    fn image(&self, prefix: &[u8], len: usize) -> (Vec<u8>, usize) {
        debug_assert!(len <= AAL5_MAX_PDU, "PDU too large for AAL5: {len} bytes");
        // `get` keeps the clamp panic-free for any prefix/len combination.
        let data = prefix.get(..len).unwrap_or(prefix);
        let cap = self.cell_payload.unwrap_or(len + AAL5_TRAILER_BYTES);
        let total = (len + AAL5_TRAILER_BYTES).div_ceil(cap).max(1) * cap;
        let pad = total - len - AAL5_TRAILER_BYTES;

        let mut pdu = Vec::with_capacity(total);
        pdu.extend_from_slice(data);
        // Zero fill to the logical PDU length, then pad to a whole number
        // of cells; the two fills are one resize.
        pdu.resize(len + pad, 0);
        pdu.push(0); // CPCS-UU
        pdu.push(0); // CPI
        pdu.extend_from_slice(&(len as u16).to_be_bytes());
        // CRC over everything up to (not including) the CRC field itself.
        let crc = crc32(&pdu);
        pdu.extend_from_slice(&crc.to_be_bytes());
        (pdu, cap)
    }

    /// Segment `data` into cells on `vci`.
    ///
    /// # Panics
    /// Panics if `data` exceeds [`AAL5_MAX_PDU`].
    pub fn segment(&self, vci: u16, data: &[u8]) -> Vec<Cell> {
        self.segment_prefixed(vci, data, data.len())
    }

    /// Segment a `len`-byte PDU whose leading bytes are `prefix` and whose
    /// remainder is zero fill, without the caller allocating the image.
    /// Byte-identical to `segment(vci, &{prefix + zeros})`; the engine's
    /// frame headers use this to skip one full-frame copy per transmission
    /// attempt.
    ///
    /// # Panics
    /// Panics if `len` exceeds [`AAL5_MAX_PDU`].
    pub fn segment_prefixed(&self, vci: u16, prefix: &[u8], len: usize) -> Vec<Cell> {
        let (pdu, cap) = self.image(prefix, len);
        let image = PduBuf::from_vec(pdu);
        let n = image.len() / cap;
        let mut cells = Vec::with_capacity(n);
        for (i, chunk) in image.chunks(cap).enumerate() {
            cells.push(Cell::new(vci, i + 1 == n, chunk));
        }
        cells
    }

    /// The cells of the PDU `segment_prefixed(vci, prefix, len)` would
    /// produce, as one [`CellTrain`] with `fates[i]` the fate of cell `i`
    /// (one fate per cell, as [`crate::Fabric::send_pdu_faulty`] draws).
    pub fn train(&self, vci: u16, prefix: &[u8], len: usize, fates: Vec<CellFate>) -> CellTrain {
        let (image, cell) = self.image(prefix, len);
        debug_assert_eq!(fates.len(), image.len() / cell, "one fate per cell");
        CellTrain {
            image,
            fates,
            vci,
            cell,
        }
    }
}

/// One PDU's cells as they left the fabric: the padded AAL5 image, cut
/// into `cell`-byte cells on `vci`, and each cell's fate. Built by
/// [`Segmenter::train`], so the image is always a whole, non-zero number
/// of cells; consumed by [`Reassembler::push_train`].
#[derive(Debug)]
pub struct CellTrain {
    image: Vec<u8>,
    fates: Vec<CellFate>,
    vci: u16,
    cell: usize,
}

impl CellTrain {
    /// The virtual channel the train's cells travel on.
    pub fn vci(&self) -> u16 {
        self.vci
    }
}

/// Per-VCI reassembly state.
///
/// Gather buffers come from an internal [`BufPool`]; rejected PDUs return
/// their storage to the pool, and callers that are done with a delivered
/// PDU can donate it back through [`Reassembler::recycle`].
pub struct Reassembler {
    partial: BTreeMap<u16, Vec<u8>>,
    pool: BufPool,
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new()
    }
}

/// Big-endian integer from the first `N` bytes of `b`, or `None` when
/// `b` is shorter (panic-free trailer decoding: the receive path must
/// survive arbitrarily corrupt or truncated input).
fn be_uint<const N: usize>(b: &[u8]) -> Option<u64> {
    let field = b.get(..N)?;
    Some(field.iter().fold(0u64, |acc, &x| (acc << 8) | u64::from(x)))
}

impl Reassembler {
    /// Fresh reassembler with no partial PDUs.
    pub fn new() -> Self {
        Reassembler {
            partial: BTreeMap::new(),
            pool: BufPool::new(),
        }
    }

    /// Accept one cell. Returns `Some(..)` when this cell completes a PDU:
    /// the user payload on success, or the detected error.
    pub fn push(&mut self, cell: &Cell) -> Option<Result<PduBuf, ReassemblyError>> {
        let buf = match self.partial.entry(cell.header.vci) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(self.pool.acquire(cell.payload.len())),
        };
        buf.extend_from_slice(&cell.payload);
        if !cell.header.end_of_pdu {
            return None;
        }
        let pdu = self.partial.remove(&cell.header.vci).unwrap_or_default();
        Some(self.complete(pdu))
    }

    /// Accept a whole train: the same outcome, and the same partial left
    /// on its VCI, as pushing its surviving cells in order with each
    /// corrupted bit flipped. A train whose cells all arrived intact onto
    /// an idle VCI is checked in place, without a gather copy.
    pub fn push_train(&mut self, train: CellTrain) -> Option<Result<PduBuf, ReassemblyError>> {
        let CellTrain {
            image,
            fates,
            vci,
            cell,
        } = train;
        let intact = fates.iter().all(|f| matches!(f, CellFate::Deliver));
        if intact && !self.partial.contains_key(&vci) {
            return Some(self.complete(image));
        }
        let mut gathered = self.partial.remove(&vci);
        let mut eop_delivered = false;
        for (i, payload) in image.chunks(cell.max(1)).enumerate() {
            let fate = fates.get(i).copied().unwrap_or(CellFate::Deliver);
            eop_delivered = !fate.is_drop();
            if fate.is_drop() {
                continue;
            }
            let buf = gathered.get_or_insert_with(|| self.pool.acquire(image.len()));
            let at = buf.len();
            buf.extend_from_slice(payload);
            if let CellFate::Corrupt { byte, bit } = fate {
                // Clamped to the cell's last byte, as `PduBuf::xor_bit`.
                let idx = at + (byte as usize).min(payload.len().saturating_sub(1));
                if let Some(b) = buf.get_mut(idx) {
                    *b ^= 1 << (bit & 7);
                }
            }
        }
        self.pool.recycle_vec(image);
        let pdu = gathered?;
        if !eop_delivered {
            self.partial.insert(vci, pdu);
            return None;
        }
        Some(self.complete(pdu))
    }

    /// Check a completed PDU's trailer: its user payload as a view of the
    /// same storage, or the error (the storage then returns to the pool).
    fn complete(&mut self, pdu: Vec<u8>) -> Result<PduBuf, ReassemblyError> {
        match Self::finish(&pdu) {
            // `finish` proved len <= image len, so the view exists.
            Ok(len) => PduBuf::from_vec(pdu)
                .view(0, len)
                .ok_or(ReassemblyError::LengthMismatch),
            Err(e) => {
                self.pool.recycle_vec(pdu);
                Err(e)
            }
        }
    }

    /// Validate the trailer; on success return the user-payload length.
    fn finish(pdu: &[u8]) -> Result<usize, ReassemblyError> {
        if pdu.len() < AAL5_TRAILER_BYTES {
            return Err(ReassemblyError::Truncated);
        }
        // Trailer layout: .. | UU | CPI | len (2) | CRC-32 (4).
        let body_end = pdu.len() - 4;
        let Some(rx_crc) = pdu.get(body_end..).and_then(be_uint::<4>) else {
            return Err(ReassemblyError::Truncated);
        };
        let Some(body) = pdu.get(..body_end) else {
            return Err(ReassemblyError::Truncated);
        };
        if u64::from(crc32(body)) != rx_crc {
            return Err(ReassemblyError::CrcMismatch);
        }
        let Some(len) = pdu.get(pdu.len() - 6..).and_then(be_uint::<2>) else {
            return Err(ReassemblyError::Truncated);
        };
        let len = len as usize;
        if len > pdu.len() - AAL5_TRAILER_BYTES {
            return Err(ReassemblyError::LengthMismatch);
        }
        Ok(len)
    }

    /// Donate a delivered PDU's storage back to the gather-buffer pool (a
    /// no-op unless `buf` is the storage's sole remaining owner).
    pub fn recycle(&mut self, buf: PduBuf) {
        self.pool.recycle(buf);
    }

    /// Number of VCIs with a partially reassembled PDU.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Number of gather buffers currently retained by the pool.
    pub fn pooled(&self) -> usize {
        self.pool.retained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(seg: &Segmenter, data: &[u8]) {
        let cells = seg.segment(9, data);
        assert_eq!(cells.len(), seg.cell_count(data.len()));
        let mut rx = Reassembler::new();
        let mut out = None;
        for (i, c) in cells.iter().enumerate() {
            let done = rx.push(c);
            if i + 1 < cells.len() {
                assert!(done.is_none(), "completed early at cell {i}");
            } else {
                out = done;
            }
        }
        let pdu = out.expect("last cell completes").expect("valid PDU");
        assert_eq!(&pdu[..], data);
        assert_eq!(rx.pending(), 0);
    }

    #[test]
    fn roundtrip_various_sizes_standard() {
        let seg = Segmenter::standard();
        for len in [0usize, 1, 39, 40, 41, 47, 48, 49, 96, 1024, 4096, 8191] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            roundtrip(&seg, &data);
        }
    }

    #[test]
    fn roundtrip_unrestricted() {
        let seg = Segmenter::unrestricted();
        for len in [0usize, 1, 48, 4096] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let cells = seg.segment(3, &data);
            assert_eq!(cells.len(), 1);
            roundtrip(&seg, &data);
        }
    }

    #[test]
    fn cell_count_matches_formula() {
        let seg = Segmenter::standard();
        // 40 bytes + 8 trailer = 48 -> exactly one cell.
        assert_eq!(seg.cell_count(40), 1);
        // 41 bytes + 8 = 49 -> two cells.
        assert_eq!(seg.cell_count(41), 2);
        // A 4 KB page: (4096+8)/48 -> 86 cells.
        assert_eq!(seg.cell_count(4096), 86);
    }

    #[test]
    fn wire_bytes_overhead() {
        let seg = Segmenter::standard();
        assert_eq!(seg.wire_bytes(40), 53);
        assert_eq!(seg.wire_bytes(4096), 86 * 53);
        let jumbo = Segmenter::unrestricted();
        assert_eq!(jumbo.wire_bytes(4096), 4096 + 8 + 5);
    }

    #[test]
    fn cells_are_views_of_one_image() {
        // The zero-copy contract: segmenting must not copy per cell. All
        // cells of a PDU alias one backing buffer, so the total payload
        // bytes equal the image length while only one allocation exists.
        let seg = Segmenter::standard();
        let data = vec![0x5Au8; 500];
        let cells = seg.segment(1, &data);
        for c in &cells {
            assert_eq!(c.payload.len(), ATM_PAYLOAD_BYTES);
        }
        // Identical contents to a reference re-segmentation.
        let reference = seg.segment(1, &data);
        assert_eq!(cells, reference);
    }

    #[test]
    fn segment_prefixed_matches_materialised_zero_fill() {
        let seg = Segmenter::standard();
        for (prefix_len, total) in [(0usize, 0usize), (8, 16), (16, 16), (16, 2048), (5, 4096)] {
            let prefix: Vec<u8> = (0..prefix_len).map(|i| (i * 7 + 1) as u8).collect();
            let mut image = vec![0u8; total];
            let n = prefix.len().min(total);
            image[..n].copy_from_slice(&prefix[..n]);
            assert_eq!(
                seg.segment_prefixed(9, &prefix, total),
                seg.segment(9, &image),
                "prefix {prefix_len} / total {total}"
            );
        }
    }

    #[test]
    fn corrupted_payload_detected() {
        let seg = Segmenter::standard();
        let data = vec![7u8; 500];
        let mut cells = seg.segment(1, &data);
        cells[3].payload.xor_bit(10, 7);
        let mut rx = Reassembler::new();
        let mut result = None;
        for c in &cells {
            if let Some(r) = rx.push(c) {
                result = Some(r);
            }
        }
        assert_eq!(result, Some(Err(ReassemblyError::CrcMismatch)));
    }

    #[test]
    fn rejected_pdus_recycle_their_gather_buffer() {
        let seg = Segmenter::standard();
        let data = vec![7u8; 500];
        let mut cells = seg.segment(1, &data);
        cells[0].payload.xor_bit(0, 0);
        let mut rx = Reassembler::new();
        for c in &cells {
            let _ = rx.push(c);
        }
        assert_eq!(rx.pooled(), 1, "CRC reject returns its buffer");
        // The next PDU reuses the pooled buffer rather than allocating.
        let clean = seg.segment(1, &data);
        for c in &clean {
            let _ = rx.push(c);
        }
        assert_eq!(rx.pooled(), 0, "reused for the next gather");
    }

    #[test]
    fn delivered_pdus_can_be_recycled_by_the_caller() {
        let seg = Segmenter::standard();
        let data = vec![3u8; 200];
        let cells = seg.segment(1, &data);
        let mut rx = Reassembler::new();
        let mut out = None;
        for c in &cells {
            if let Some(r) = rx.push(c) {
                out = Some(r);
            }
        }
        let pdu = out.expect("EOP").expect("valid");
        rx.recycle(pdu);
        assert_eq!(rx.pooled(), 1);
    }

    #[test]
    fn interleaved_vcis_reassemble_independently() {
        let seg = Segmenter::standard();
        let a: Vec<u8> = vec![0xAA; 300];
        let b: Vec<u8> = vec![0xBB; 200];
        let ca = seg.segment(1, &a);
        let cb = seg.segment(2, &b);
        let mut rx = Reassembler::new();
        let mut done = Vec::new();
        // Interleave the two cell streams.
        let mut ia = ca.iter();
        let mut ib = cb.iter();
        loop {
            let mut any = false;
            if let Some(c) = ia.next() {
                any = true;
                if let Some(r) = rx.push(c) {
                    done.push((1u16, r.unwrap()));
                }
            }
            if let Some(c) = ib.next() {
                any = true;
                if let Some(r) = rx.push(c) {
                    done.push((2u16, r.unwrap()));
                }
            }
            if !any {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        let got_a = done.iter().find(|(v, _)| *v == 1).unwrap();
        let got_b = done.iter().find(|(v, _)| *v == 2).unwrap();
        assert_eq!(&got_a.1[..], &a[..]);
        assert_eq!(&got_b.1[..], &b[..]);
    }

    #[test]
    fn lone_eop_cell_with_no_trailer_is_truncated() {
        // A single end-of-PDU cell whose accumulated bytes are fewer than
        // the trailer cannot be a valid AAL5 frame.
        let cell = Cell::new(5, true, PduBuf::from_vec(vec![0u8; 4]));
        let mut rx = Reassembler::new();
        assert_eq!(rx.push(&cell), Some(Err(ReassemblyError::Truncated)));
    }
}
