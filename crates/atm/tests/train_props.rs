//! Differential property: reassembling a whole [`CellTrain`] gives the
//! same bytes, or the same [`ReassemblyError`], and leaves the same
//! partial state as pushing its surviving, bit-flipped cells one by one
//! through [`Reassembler::push`] — for standard and unrestricted cells.
//!
//! And the AAL5 contract on the train path the engine's lossy frames
//! take: cell loss and corruption cost delivery, never integrity. A
//! delivered PDU is exactly the transmitted one.

use cni_atm::aal5::ReassemblyError;
use cni_atm::{Cell, CellFate, PduBuf, Reassembler, Segmenter};
use proptest::prelude::*;

/// A fate from a generated `(kind, byte, bit)`: kinds 0–5 deliver, 6–7
/// drop (except the last cell, which carries the end-of-PDU mark) and
/// 8–9 corrupt.
fn fate(kind: u8, byte: u32, bit: u8, last: bool) -> CellFate {
    match kind {
        6 | 7 if !last => CellFate::Drop,
        8 | 9 => CellFate::Corrupt { byte, bit },
        _ => CellFate::Deliver,
    }
}

/// The PDU a train of `prefix` at `len` bytes carries: `prefix` cut at
/// `len`, then zero fill.
fn clean_image(prefix: &[u8], len: usize) -> Vec<u8> {
    let mut data = prefix[..prefix.len().min(len)].to_vec();
    data.resize(len, 0);
    data
}

/// The per-cell reference: the fabric's verdicts applied cell by cell.
fn push_cells(
    rx: &mut Reassembler,
    cells: Vec<Cell>,
    fates: &[CellFate],
) -> Option<Result<PduBuf, ReassemblyError>> {
    let mut out = None;
    for (mut cell, fate) in cells.into_iter().zip(fates) {
        match *fate {
            CellFate::Drop => continue,
            CellFate::Corrupt { byte, bit } => cell.payload.xor_bit(byte as usize, bit),
            CellFate::Deliver => {}
        }
        if let Some(done) = rx.push(&cell) {
            out = Some(done);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    fn a_train_reassembles_like_its_surviving_cells(
        len in 0usize..700,
        prefix in collection::vec(any::<u8>(), 0..80),
        codes in collection::vec((0u8..10, 0u32..120, 0u8..12), 15),
    ) {
        for seg in [Segmenter::standard(), Segmenter::unrestricted()] {
            let n = seg.cell_count(len);
            // At most 15 cells: (699 + 8) / 48 rounded up.
            let fates: Vec<CellFate> = (0..n)
                .map(|i| {
                    let (kind, byte, bit) = codes[i];
                    fate(kind, byte, bit, i + 1 == n)
                })
                .collect();
            let mut by_cell = Reassembler::new();
            let mut by_train = Reassembler::new();
            let want = push_cells(
                &mut by_cell,
                seg.segment_prefixed(3, &prefix, len),
                &fates,
            );
            let got = by_train.push_train(seg.train(3, &prefix, len, fates.clone()));
            prop_assert_eq!(&got, &want, "fates {:?}", fates);
            prop_assert!(got.is_some(), "the end-of-PDU cell always arrives here");
            prop_assert_eq!(by_train.pending(), by_cell.pending());

            // Both reassemblers are left in the same state: the next
            // intact PDU on the channel reassembles identically.
            let intact = vec![CellFate::Deliver; n];
            let want = push_cells(&mut by_cell, seg.segment_prefixed(3, &prefix, len), &intact);
            let got = by_train.push_train(seg.train(3, &prefix, len, intact));
            prop_assert_eq!(&got, &want);
            let delivered = got.and_then(Result::ok).map(|p| p.to_vec());
            prop_assert_eq!(delivered, Some(clean_image(&prefix, len)));
        }
    }

    /// No silent corruption: whatever fates its cells meet, the
    /// end-of-PDU cell included, a train that is delivered is its clean
    /// image. Each PDU has a VCI of its own, so a lost end-of-PDU leaves
    /// its partial behind without merging it into the next PDU.
    fn a_delivered_train_is_its_clean_image(
        pdus in collection::vec(
            (0usize..400, collection::vec(any::<u8>(), 0..60),
             collection::vec((0u8..12, 0u32..120, 0u8..12), 10)),
            1..12),
    ) {
        for seg in [Segmenter::standard(), Segmenter::unrestricted()] {
            let mut rx = Reassembler::new();
            for (vci, (len, prefix, codes)) in pdus.iter().enumerate() {
                let n = seg.cell_count(*len);
                let fates: Vec<CellFate> = (0..n)
                    .map(|i| match codes[i] {
                        (6 | 7, _, _) => CellFate::Drop,
                        (8..=11, byte, bit) => CellFate::Corrupt { byte, bit },
                        _ => CellFate::Deliver,
                    })
                    .collect();
                let train = seg.train(vci as u16, prefix, *len, fates.clone());
                if let Some(Ok(pdu)) = rx.push_train(train) {
                    prop_assert_eq!(&pdu[..], &clean_image(prefix, *len)[..], "fates {:?}", fates);
                }
            }
        }
    }
}

/// Every cell of a train flipped in one bit, the trailer's included:
/// the CRC-32 rejects the PDU before its length field is believed.
#[test]
fn a_train_with_every_cell_corrupted_is_rejected() {
    for seg in [Segmenter::standard(), Segmenter::unrestricted()] {
        for len in [0usize, 1, 40, 41, 500, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let fates: Vec<CellFate> = (0..seg.cell_count(len))
                .map(|i| CellFate::Corrupt {
                    byte: (i * 13 % 48) as u32,
                    bit: (i % 8) as u8,
                })
                .collect();
            let mut rx = Reassembler::new();
            assert_eq!(
                rx.push_train(seg.train(4, &data, len, fates)),
                Some(Err(ReassemblyError::CrcMismatch)),
                "{len} bytes"
            );
            assert_eq!(rx.pending(), 0);
        }
    }
}

/// A train whose end-of-PDU cell is lost leaves its surviving cells on
/// the VCI, exactly as per-cell reassembly does, and the next train on
/// that VCI completes the merged PDU and fails its check.
#[test]
fn a_lost_end_of_pdu_leaves_the_same_partial() {
    let seg = Segmenter::standard();
    let data = vec![0x3Cu8; 200];
    let n = seg.cell_count(data.len());
    let mut lost = vec![CellFate::Deliver; n];
    lost[n - 1] = CellFate::Drop;
    lost[1] = CellFate::Corrupt { byte: 999, bit: 3 };
    let mut by_cell = Reassembler::new();
    let mut by_train = Reassembler::new();
    assert_eq!(push_cells(&mut by_cell, seg.segment(5, &data), &lost), None);
    assert_eq!(
        by_train.push_train(seg.train(5, &data, data.len(), lost)),
        None
    );
    assert_eq!((by_train.pending(), by_cell.pending()), (1, 1));
    let intact = vec![CellFate::Deliver; n];
    let want = push_cells(&mut by_cell, seg.segment(5, &data), &intact);
    let got = by_train.push_train(seg.train(5, &data, data.len(), intact));
    assert_eq!(got, want);
    assert!(matches!(got, Some(Err(_))), "the merged PDU is rejected");
    assert_eq!(by_train.pending(), 0);
}
