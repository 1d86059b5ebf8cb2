//! Protocol messages of the lazy invalidate release-consistency DSM.
//!
//! Every consistency action is a message between processors; the cluster
//! simulation gives each one transport timing through the NIC/ATM models.
//! [`Payload::wire_bytes`] defines on-the-wire sizes, and
//! [`Payload::kind`] the leading header byte PATHFINDER patterns match on
//! (so the CNI can dispatch protocol messages to the on-board handler).

use crate::diff::Diff;
use crate::types::{LockId, PageId, ProcId, VClock, WriteNotice};
use std::sync::Arc;

/// Fixed header bytes on every protocol message (kind, source, length,
/// sequence — what a real implementation would carry).
pub const MSG_HEADER_BYTES: usize = 32;

/// Message kind bytes (the first header byte; PATHFINDER matches these).
pub mod kind {
    /// Lock acquire request (to manager).
    pub const ACQUIRE_REQ: u8 = 0xD0;
    /// Lock acquire forwarded (manager to probable holder).
    pub const ACQUIRE_FWD: u8 = 0xD1;
    /// Lock grant with piggybacked write notices.
    pub const ACQUIRE_GRANT: u8 = 0xD2;
    /// Barrier arrival (client to manager).
    pub const BARRIER_ARRIVE: u8 = 0xD3;
    /// Barrier release broadcast.
    pub const BARRIER_RELEASE: u8 = 0xD4;
    /// Full-page fetch request.
    pub const PAGE_REQ: u8 = 0xD5;
    /// Full-page data reply.
    pub const PAGE_RESP: u8 = 0xD6;
    /// Diff fetch request.
    pub const DIFF_REQ: u8 = 0xD7;
    /// Diff data reply.
    pub const DIFF_RESP: u8 = 0xD8;
}

/// The protocol payloads. They travel as values through the simulated
/// fabric and are never encoded to bytes; [`Payload::wire_bytes`] prices
/// them.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Ask the lock's manager for the token.
    AcquireReq {
        /// The lock.
        lock: LockId,
        /// Who wants it.
        requester: ProcId,
        /// Requester's vector time (for notice filtering at grant).
        vc: VClock,
    },
    /// Manager forwards the request toward the probable holder.
    AcquireFwd {
        /// The lock.
        lock: LockId,
        /// Original requester.
        requester: ProcId,
        /// Requester's vector time.
        vc: VClock,
    },
    /// The token, with consistency information.
    AcquireGrant {
        /// The lock.
        lock: LockId,
        /// Granter's vector time.
        vc: VClock,
        /// Write notices the requester has not seen.
        notices: Vec<WriteNotice>,
        /// Requests queued behind this one (chain transfer).
        then_serve: Vec<(ProcId, VClock)>,
    },
    /// Client reached the barrier.
    BarrierArrive {
        /// Barrier epoch.
        epoch: u32,
        /// Arriving processor.
        proc: ProcId,
        /// Its vector time.
        vc: VClock,
        /// Its own write notices created since the last barrier.
        notices: Vec<WriteNotice>,
    },
    /// Manager releases the barrier.
    BarrierRelease {
        /// Barrier epoch.
        epoch: u32,
        /// Merged vector time.
        vc: VClock,
        /// Union of all new write notices, ascending by `(writer,
        /// interval, page)`: sorted once at the root, and shared by every
        /// copy of the release.
        notices: Arc<[WriteNotice]>,
    },
    /// Fetch a full page copy.
    PageReq {
        /// The page.
        page: PageId,
        /// Who is asking.
        requester: ProcId,
    },
    /// A full page copy.
    PageResp {
        /// The page.
        page: PageId,
        /// Which writer intervals the copy reflects.
        version: VClock,
        /// The page words.
        data: Vec<u64>,
    },
    /// Fetch a writer's diffs for a page, intervals in `(floor, upto]`.
    DiffReq {
        /// The page.
        page: PageId,
        /// Who is asking.
        requester: ProcId,
        /// Exclusive lower interval bound.
        floor: u32,
        /// Inclusive upper interval bound.
        upto: u32,
    },
    /// The requested diffs, ascending by interval.
    DiffResp {
        /// The page.
        page: PageId,
        /// The writer whose diffs these are.
        writer: ProcId,
        /// Interval of each diff.
        intervals: Vec<u32>,
        /// Vector time of each interval — the receiver applies diffs in a
        /// linear extension of the causal order these encode.
        vcs: Vec<VClock>,
        /// The diffs themselves.
        diffs: Vec<Diff>,
    },
}

impl Payload {
    /// The classification byte (first header byte).
    pub fn kind(&self) -> u8 {
        match self {
            Payload::AcquireReq { .. } => kind::ACQUIRE_REQ,
            Payload::AcquireFwd { .. } => kind::ACQUIRE_FWD,
            Payload::AcquireGrant { .. } => kind::ACQUIRE_GRANT,
            Payload::BarrierArrive { .. } => kind::BARRIER_ARRIVE,
            Payload::BarrierRelease { .. } => kind::BARRIER_RELEASE,
            Payload::PageReq { .. } => kind::PAGE_REQ,
            Payload::PageResp { .. } => kind::PAGE_RESP,
            Payload::DiffReq { .. } => kind::DIFF_REQ,
            Payload::DiffResp { .. } => kind::DIFF_RESP,
        }
    }

    /// On-the-wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        let body = match self {
            Payload::AcquireReq { vc, .. } | Payload::AcquireFwd { vc, .. } => 8 + 4 * vc.len(),
            Payload::AcquireGrant {
                vc,
                notices,
                then_serve,
                ..
            } => 8 + 4 * vc.len() + 12 * notices.len() + (8 + 4 * vc.len()) * then_serve.len(),
            Payload::BarrierArrive { vc, notices, .. } => 8 + 4 * vc.len() + 12 * notices.len(),
            Payload::BarrierRelease { vc, notices, .. } => 8 + 4 * vc.len() + 12 * notices.len(),
            Payload::PageReq { .. } => 8,
            Payload::PageResp { version, data, .. } => 4 * version.len() + 8 * data.len(),
            Payload::DiffReq { .. } => 16,
            Payload::DiffResp {
                intervals,
                vcs,
                diffs,
                ..
            } => {
                8 + 4 * intervals.len()
                    + vcs.iter().map(|v| 4 * v.len()).sum::<usize>()
                    + diffs.iter().map(Diff::wire_bytes).sum::<usize>()
            }
        };
        MSG_HEADER_BYTES + body
    }

    /// If this message carries a complete page image, which page — the
    /// Message Cache operates on exactly these.
    pub fn page_payload(&self) -> Option<PageId> {
        match self {
            Payload::PageResp { page, .. } => Some(*page),
            _ => None,
        }
    }

    /// Should the receiving board bind this payload into its Message Cache
    /// (the header cache bit)? Set for migratory page images, per §2.2.
    pub fn cacheable(&self) -> bool {
        matches!(self, Payload::PageResp { .. })
    }

    /// Encoded header bytes a classifier would see.
    pub fn header_bytes(&self, src: ProcId) -> [u8; 8] {
        let mut h = [0u8; 8];
        h[0] = self.kind();
        h[1] = src.0 as u8;
        let len = self.wire_bytes() as u32;
        h[2..6].copy_from_slice(&len.to_be_bytes());
        h
    }
}

/// A routed protocol message.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sender.
    pub src: ProcId,
    /// Receiver.
    pub dst: ProcId,
    /// Content.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_content() {
        let vc = VClock::zero(8);
        let small = Payload::AcquireReq {
            lock: LockId(1),
            requester: ProcId(0),
            vc: vc.clone(),
        };
        assert_eq!(small.wire_bytes(), 32 + 8 + 32);

        let page = Payload::PageResp {
            page: PageId(0),
            version: vc.clone(),
            data: vec![0; 256],
        };
        assert_eq!(page.wire_bytes(), 32 + 32 + 2048);

        let grant = Payload::AcquireGrant {
            lock: LockId(1),
            vc,
            notices: vec![
                WriteNotice {
                    writer: ProcId(1),
                    interval: 1,
                    page: PageId(0),
                };
                3
            ],
            then_serve: vec![],
        };
        assert_eq!(grant.wire_bytes(), 32 + 8 + 32 + 36);
    }

    #[test]
    fn kinds_are_distinct() {
        let vc = VClock::zero(2);
        let payloads = [
            Payload::AcquireReq {
                lock: LockId(0),
                requester: ProcId(0),
                vc: vc.clone(),
            },
            Payload::AcquireFwd {
                lock: LockId(0),
                requester: ProcId(0),
                vc: vc.clone(),
            },
            Payload::AcquireGrant {
                lock: LockId(0),
                vc: vc.clone(),
                notices: vec![],
                then_serve: vec![],
            },
            Payload::BarrierArrive {
                epoch: 0,
                proc: ProcId(0),
                vc: vc.clone(),
                notices: vec![],
            },
            Payload::BarrierRelease {
                epoch: 0,
                vc: vc.clone(),
                notices: Arc::new([]),
            },
            Payload::PageReq {
                page: PageId(0),
                requester: ProcId(0),
            },
            Payload::PageResp {
                page: PageId(0),
                version: vc.clone(),
                data: vec![],
            },
            Payload::DiffReq {
                page: PageId(0),
                requester: ProcId(0),
                floor: 0,
                upto: 1,
            },
            Payload::DiffResp {
                page: PageId(0),
                writer: ProcId(0),
                intervals: vec![],
                vcs: vec![],
                diffs: vec![],
            },
        ];
        let mut kinds: Vec<u8> = payloads.iter().map(Payload::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), payloads.len());
    }

    #[test]
    fn only_page_resp_is_cacheable() {
        let p = Payload::PageResp {
            page: PageId(3),
            version: VClock::zero(2),
            data: vec![],
        };
        assert!(p.cacheable());
        assert_eq!(p.page_payload(), Some(PageId(3)));
        let q = Payload::PageReq {
            page: PageId(3),
            requester: ProcId(0),
        };
        assert!(!q.cacheable());
        assert_eq!(q.page_payload(), None);
    }

    #[test]
    fn header_bytes_carry_kind_and_src() {
        let p = Payload::PageReq {
            page: PageId(3),
            requester: ProcId(2),
        };
        let h = p.header_bytes(ProcId(2));
        assert_eq!(h[0], kind::PAGE_REQ);
        assert_eq!(h[1], 2);
    }
}
