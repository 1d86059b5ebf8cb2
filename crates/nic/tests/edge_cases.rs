//! Edge-case tests for the Message Cache, plus degenerate PDU shapes
//! through the zero-copy receive path.
//!
//! These pin behaviours that only show up at boundaries: CLOCK evicting a
//! buffer that snooping had just updated, and the smallest PDUs AAL5 can
//! express (zero bytes of user data, and exactly one cell).

use cni_atm::aal5::ReassemblyError;
use cni_atm::{CellFate, CellTrain, Segmenter};
use cni_nic::{MessageCache, Nic, NicConfig, NicKind};

// ---- Message Cache: evicting a dirty snooped buffer -----------------------

/// A page the snooper has been keeping consistent (a *dirty* board copy,
/// in the sense that it absorbed CPU writes) is still a legal CLOCK
/// victim. After eviction the binding must be fully gone: transmit
/// lookups miss (forcing a fresh DMA) and subsequent snoops to the page
/// report non-resident instead of updating a stale buffer.
#[test]
fn clock_eviction_of_dirty_snooped_buffer_unbinds_it() {
    let mut c = MessageCache::new(2, 64);
    assert_eq!(c.insert(0xA), None);
    assert_eq!(c.insert(0xB), None);

    // CPU writes to page 0xA reach the bus; the board copy is updated in
    // place. The copy is now "dirty" relative to what was DMAed in.
    let (resident, _) = c.snoop_write(0xA);
    assert!(resident);
    assert_eq!(c.stats().snoop_updates, 1);

    // Note: snooping does NOT set the CLOCK reference bit — only transmit
    // activity does. Touch 0xB so the sweep clears both bits and then
    // takes 0xA (first unreferenced slot), the dirty one.
    assert!(c.lookup_tx(0xB));
    let evicted = c.insert(0xC).expect("cache was full");
    assert_eq!(evicted, 0xA, "the dirty snooped page is the victim");
    assert_eq!(c.stats().evictions, 1);

    // The binding is gone on every path.
    assert!(!c.contains(0xA));
    assert!(!c.lookup_tx(0xA), "post-eviction transmit must re-DMA");
    let (resident, _) = c.snoop_write(0xA);
    assert!(
        !resident,
        "post-eviction snoops must not touch a stale slot"
    );
    assert_eq!(c.stats().snoop_misses, 1);

    // Re-inserting after the fresh DMA re-binds cleanly.
    let _ = c.insert(0xA);
    assert!(c.contains(0xA));
    let (resident, _) = c.snoop_write(0xA);
    assert!(resident);
}

/// Same scenario at the device level: the `Nic` façade's snoop path must
/// agree with residency after an invalidation (the explicit analogue of
/// losing the buffer).
#[test]
fn device_snoop_agrees_with_residency_after_invalidate() {
    let mut nic = Nic::new(NicKind::Cni, NicConfig::default());
    assert!(!nic.page_resident(5));
    assert!(!nic.snoop_write(5));
    nic.invalidate_page(5); // not resident: a no-op
    assert!(!nic.page_resident(5));
}

// ---- Degenerate PDUs through the zero-copy receive path -------------------

/// `data` on `vci` as a standard-cell train whose every cell arrives.
fn intact(vci: u16, data: &[u8]) -> CellTrain {
    let seg = Segmenter::standard();
    let fates = vec![CellFate::Deliver; seg.cell_count(data.len())];
    seg.train(vci, data, data.len(), fates)
}

/// A zero-length PDU is legal AAL5: pad + 8-byte trailer in a single
/// cell. It must flow through segmentation, reassembly and handle
/// recycling without ever materialising payload bytes.
#[test]
fn zero_length_pdu_round_trips_zero_copy() {
    let seg = Segmenter::standard();
    assert_eq!(seg.cell_count(0), 1, "0 + trailer fits one cell");

    let mut nic = Nic::new(NicKind::Cni, NicConfig::default());
    let pdu = nic
        .ingest_frame(intact(9, b""))
        .expect("EOP present")
        .expect("CRC valid");
    assert!(pdu.is_empty());
    assert_eq!(pdu.len(), 0);
    assert_eq!(&pdu[..], b"");
    // The empty handle still participates in the recycle half of the
    // life cycle without upsetting the pool.
    nic.recycle_pdu(pdu);
    assert_eq!(nic.stats().rx_frames_discarded, 0);
}

/// The largest PDU that still fits one standard cell (48 - 8 trailer =
/// 40 bytes), and the first size that spills into a second cell.
#[test]
fn single_cell_pdu_boundary_round_trips_zero_copy() {
    let seg = Segmenter::standard();
    let mut nic = Nic::new(NicKind::Cni, NicConfig::default());

    let forty: Vec<u8> = (0..40u8).collect();
    assert_eq!(seg.cell_count(40), 1, "40 + 8 trailer == exactly one cell");
    let pdu = nic
        .ingest_frame(intact(3, &forty))
        .expect("EOP present")
        .expect("CRC valid");
    assert_eq!(&pdu[..], &forty[..]);
    nic.recycle_pdu(pdu);

    let forty_one: Vec<u8> = (0..41u8).collect();
    assert_eq!(
        seg.cell_count(41),
        2,
        "41 + 8 trailer spills into a second cell"
    );
    let pdu = nic
        .ingest_frame(intact(3, &forty_one))
        .expect("EOP present")
        .expect("CRC valid");
    assert_eq!(&pdu[..], &forty_one[..]);
    nic.recycle_pdu(pdu);
}

/// A truncated single-cell frame (EOP cell whose trailer claims more data
/// than arrived) is rejected, not delivered — the zero-copy path keeps
/// AAL5's integrity checking intact.
#[test]
fn corrupt_single_cell_pdu_is_rejected_not_delivered() {
    let seg = Segmenter::standard();
    let mut nic = Nic::new(NicKind::Cni, NicConfig::default());
    assert_eq!(seg.cell_count(16), 1);
    let flipped = vec![CellFate::Corrupt { byte: 2, bit: 0 }];
    let err = nic
        .ingest_frame(seg.train(4, &[0xEE; 16], 16, flipped))
        .expect("EOP present")
        .expect_err("flipped bit must fail the CRC");
    assert_eq!(err, ReassemblyError::CrcMismatch);
    assert_eq!(nic.stats().rx_crc_failures, 1);
    assert_eq!(nic.stats().rx_frames_discarded, 1);

    // A clean retransmission right after still delivers.
    let pdu = nic
        .ingest_frame(intact(4, &[0xEE; 16]))
        .expect("EOP present")
        .expect("clean retransmission");
    assert_eq!(&pdu[..], &[0xEE; 16][..]);
}
