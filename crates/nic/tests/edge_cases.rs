//! Edge-case tests for the NIC's user-visible rings ([`ChannelQueues`])
//! and the Message Cache, plus degenerate PDU shapes through the
//! zero-copy receive path.
//!
//! These pin behaviours that only show up at boundaries: descriptor rings
//! cycling through their capacity many times over, a board starved of
//! free buffers, CLOCK evicting a buffer that snooping had just updated,
//! and the smallest PDUs AAL5 can express (zero bytes of user data, and
//! exactly one cell).

use cni_atm::aal5::ReassemblyError;
use cni_atm::{CellFate, CellTrain, Segmenter};
use cni_nic::queues::QueueError;
use cni_nic::{ChannelQueues, Descriptor, MessageCache, Nic, NicConfig, NicKind};

fn desc(vaddr: u64, len: u32) -> Descriptor {
    Descriptor {
        vaddr,
        len,
        cacheable: false,
    }
}

fn channel(capacity: usize) -> ChannelQueues {
    let mut q = ChannelQueues::new(capacity);
    q.register_region(0x1000, 0x10000);
    q
}

// ---- ADC ring wrap-around -------------------------------------------------

/// Cycle each ring through its capacity many times while holding it at
/// (or near) full: the internal head/tail indices wrap repeatedly and
/// FIFO order must survive every wrap.
#[test]
fn adc_rings_survive_many_wrap_arounds_at_capacity() {
    const CAP: usize = 4;
    let mut q = channel(CAP);

    // Pre-fill to capacity so every subsequent enqueue lands just after a
    // dequeue — the ring stays full and the indices march around it.
    for i in 0..CAP as u64 {
        q.enqueue_transmit(desc(0x1000 + i * 64, 64)).unwrap();
    }
    for (round, next) in (0..(8 * CAP as u64)).zip(CAP as u64..) {
        // Full ring refuses first — proves we really are at capacity on
        // every single wrap step.
        assert_eq!(
            q.enqueue_transmit(desc(0x1000, 64)),
            Err(QueueError::Full),
            "round {round}: ring should be full"
        );
        let out = q.dequeue_transmit().expect("ring is full");
        assert_eq!(out.vaddr, 0x1000 + round * 64, "FIFO order across wraps");
        q.enqueue_transmit(desc(0x1000 + next * 64, 64)).unwrap();
    }
    // Drain what remains, still in order.
    for i in 0..CAP as u64 {
        let out = q.dequeue_transmit().expect("drain");
        assert_eq!(out.vaddr, 0x1000 + (8 * CAP as u64 + i) * 64);
    }
    assert!(q.dequeue_transmit().is_none());
    // Every refused enqueue was counted as backpressure, not lost state.
    assert_eq!(q.overflow_drops(), 8 * CAP as u64);
    let (enq, deq, faults) = q.stats();
    assert_eq!(enq, 9 * CAP as u64);
    assert_eq!(deq, 9 * CAP as u64);
    assert_eq!(faults, 0);
}

/// The free and receive rings wrap too: run the full board-side cycle
/// (post free → claim free → post receive → poll receive) for several
/// times the ring capacity.
#[test]
fn free_receive_cycle_wraps_cleanly() {
    const CAP: usize = 3;
    let mut q = channel(CAP);
    for i in 0..(5 * CAP as u64) {
        q.enqueue_free(desc(0x2000 + (i % 8) * 2048, 2048)).unwrap();
        let buf = q.take_free().expect("just posted");
        q.post_receive(buf).unwrap();
        let got = q.dequeue_receive().expect("just delivered");
        assert_eq!(got.vaddr, 0x2000 + (i % 8) * 2048);
    }
    assert_eq!(q.free_available(), 0);
    assert_eq!(q.receive_pending(), 0);
    assert_eq!(q.overflow_drops(), 0);
}

// ---- Free-queue exhaustion ------------------------------------------------

/// A board that drains the free queue gets `None` — counted, recoverable
/// backpressure, never a panic — and the channel keeps working once the
/// application reprovisions buffers.
#[test]
fn free_queue_exhaustion_is_backpressure_not_failure() {
    const CAP: usize = 2;
    let mut q = channel(CAP);
    q.enqueue_free(desc(0x3000, 2048)).unwrap();
    q.enqueue_free(desc(0x3800, 2048)).unwrap();
    // Application overprovisions: the ring is at capacity and refuses.
    assert_eq!(q.enqueue_free(desc(0x4000, 2048)), Err(QueueError::Full));
    assert_eq!(q.overflow_drops(), 1);

    // Board drains everything...
    let a = q.take_free().expect("first");
    let b = q.take_free().expect("second");
    // ...and the next arrival finds no buffer: exhaustion is a `None`.
    assert!(q.take_free().is_none());
    assert!(q.take_free().is_none());
    assert_eq!(q.free_available(), 0);

    // The dequeue counter only moves for successful takes.
    let (_, deq, _) = q.stats();
    assert_eq!(deq, 2);

    // Recovery: the application reposts, the board proceeds.
    q.enqueue_free(a).unwrap();
    q.post_receive(b).unwrap();
    assert_eq!(q.take_free().expect("reprovisioned").vaddr, 0x3000);
    assert_eq!(q.dequeue_receive().expect("delivered").vaddr, 0x3800);
}

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
