//! Differential property: reassembling a whole [`CellTrain`] gives the
//! same bytes, or the same [`ReassemblyError`], and leaves the same
//! partial state as pushing its surviving, bit-flipped cells one by one
//! through [`Reassembler::push`] — for standard and unrestricted cells.

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
            let delivered = got.and_then(Result::ok).map(|p| p.len());
            prop_assert_eq!(delivered, Some(len));
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
