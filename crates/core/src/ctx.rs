//! The application programming interface: what a simulated processor's
//! program sees.
//!
//! A program is a closure receiving a [`ProcCtx`]. Shared-memory reads and
//! writes take the fast path — a relaxed atomic state check plus the word
//! access — and only *yield* to the simulation engine on faults,
//! synchronisation, message passing, and at termination. Computation is
//! charged with [`ProcCtx::compute`] and batched locally, so the handshake
//! cost is paid per simulated *communication event*, not per arithmetic
//! operation (the execution-driven trade Proteus made).
//!
//! The fast path finds a page through a dense per-processor table indexed
//! by [`PageId`]: the world allocates page ids contiguously from 0, so the
//! table is sized once to the segment and a hit is one bounds-checked slot
//! load — no hashing, no refcount traffic. A slot is filled on the
//! processor's first touch of the page with the node's [`PageHandle`], a
//! single `Arc` over the page's words and access state. The DSM protocol
//! mutates that page in place (state changes, diffs, page fills) and never
//! replaces it, so a handle cached for the whole run stays current. An
//! address outside the segment panics.

use cni_dsm::NodeSpace;
use cni_dsm::{access, LockId, Page, PageHandle, PageId, VAddr, SHARED_BASE};
use cni_sim::Port;
use std::sync::Arc;

/// Operations that reach the simulation engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Shared read faulted on `page`.
    ReadFault(PageId),
    /// Shared write faulted on `page`.
    WriteFault(PageId),
    /// Acquire a DSM lock.
    Acquire(LockId),
    /// Release a DSM lock.
    Release(LockId),
    /// Arrive at the global barrier.
    Barrier,
    /// Send an application-level message (message-passing paradigm).
    SendTo {
        /// Destination processor.
        dst: u32,
        /// Payload length in bytes.
        len: u32,
        /// Backing page, if the payload is a page-sized buffer (enables
        /// transmit caching).
        page: Option<u64>,
        /// Message-header cache bit.
        cacheable: bool,
        /// Dirty host-cache lines to flush before the board may read the
        /// buffer.
        dirty_lines: u32,
        /// Payload words, if the receiver needs the data (execution-driven
        /// message passing); `None` for timing-only traffic.
        data: Option<Arc<Vec<u64>>>,
    },
    /// Spin-wait politely: charge synchronisation-overhead cycles without
    /// calling them computation (bag-of-tasks pollers).
    Backoff(u64),
    /// Block until an application-level message arrives.
    Recv,
    /// Program finished (issued automatically).
    Done,
}

/// A yield to the engine: accumulated computation plus the operation.
#[derive(Clone, Debug)]
pub struct YieldMsg {
    /// Host CPU cycles of computation since the last yield.
    pub pending_cycles: u64,
    /// The operation.
    pub op: Op,
}

/// The engine's reply to a yield.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Operation complete.
    Ok,
    /// A message was received (reply to [`Op::Recv`]).
    Received {
        /// Sending processor.
        src: u32,
        /// Payload length in bytes.
        len: u32,
        /// Payload words, when the sender attached data.
        data: Option<Arc<Vec<u64>>>,
    },
}

/// Per-access fast-path costs (host cycles), captured from the cluster
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct AccessCosts {
    /// Cycles per fault-free shared read.
    pub read: u64,
    /// Cycles per fault-free shared write.
    pub write: u64,
}

/// The program-side context for one simulated processor.
pub struct ProcCtx<'a> {
    me: u32,
    procs: u32,
    page_bytes: usize,
    line_bytes: usize,
    costs: AccessCosts,
    space: Arc<NodeSpace>,
    /// Slot `i` caches this node's handle to page `i` once touched.
    pages: Box<[Option<PageHandle>]>,
    pending: u64,
    port: &'a mut Port<YieldMsg, Reply>,
}

impl<'a> ProcCtx<'a> {
    /// Engine-side constructor (used by the world's program wrapper).
    /// `pages` is the size of the shared segment in pages.
    pub fn new(
        me: u32,
        procs: u32,
        costs: AccessCosts,
        space: Arc<NodeSpace>,
        pages: usize,
        port: &'a mut Port<YieldMsg, Reply>,
    ) -> Self {
        ProcCtx {
            me,
            procs,
            page_bytes: space.page_bytes(),
            line_bytes: space.line_bytes(),
            costs,
            space,
            pages: (0..pages).map(|_| None).collect(),
            pending: 0,
            port,
        }
    }

    /// This processor's id.
    #[inline]
    pub fn id(&self) -> u32 {
        self.me
    }

    /// Cluster size.
    #[inline]
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Shared page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Charge `cycles` of computation.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    fn yield_op(&mut self, op: Op) -> Reply {
        let pending = std::mem::take(&mut self.pending);
        self.port.call(YieldMsg {
            pending_cycles: pending,
            op,
        })
    }

    /// The page slot and byte offset of `addr`. An address below the
    /// segment wraps to a slot past its end, so [`ProcCtx::first_touch`]
    /// rejects it too.
    #[inline]
    fn locate(&self, addr: VAddr) -> (usize, usize) {
        let off = addr.0.wrapping_sub(SHARED_BASE);
        let page_bytes = self.page_bytes as u64;
        let slot = usize::try_from(off / page_bytes).unwrap_or(usize::MAX);
        (slot, (off % page_bytes) as usize)
    }

    /// The cached page in `slot`, if this processor touched it before.
    #[inline]
    fn cached(&self, slot: usize) -> Option<&Page> {
        self.pages.get(slot)?.as_deref()
    }

    /// Fill `slot` on this processor's first access to its page.
    #[cold]
    #[inline(never)]
    fn first_touch(&mut self, addr: VAddr, slot: usize) {
        let segment = self.pages.len();
        assert!(
            slot < segment,
            "shared address {addr:?} is outside the allocated segment of {segment} pages"
        );
        self.pages[slot] = Some(self.space.page(PageId(slot as u32)));
    }

    /// Read a shared 64-bit word. Faults transparently.
    #[inline]
    pub fn read_u64(&mut self, addr: VAddr) -> u64 {
        let (slot, off) = self.locate(addr);
        loop {
            let Some(p) = self.cached(slot) else {
                self.first_touch(addr, slot);
                continue;
            };
            if p.flags.state() != access::INVALID {
                let v = p.frame.load(off / 8);
                self.pending += self.costs.read;
                return v;
            }
            self.yield_op(Op::ReadFault(PageId(slot as u32)));
        }
    }

    /// Write a shared 64-bit word. Faults transparently and records the
    /// dirty cache line for the flush model.
    #[inline]
    pub fn write_u64(&mut self, addr: VAddr, v: u64) {
        let (slot, off) = self.locate(addr);
        loop {
            let Some(p) = self.cached(slot) else {
                self.first_touch(addr, slot);
                continue;
            };
            if p.flags.state() == access::WRITE {
                p.frame.store(off / 8, v);
                p.flags.mark_dirty(off / self.line_bytes);
                self.pending += self.costs.write;
                return;
            }
            self.yield_op(Op::WriteFault(PageId(slot as u32)));
        }
    }

    /// Read a shared `f64`.
    #[inline]
    pub fn read_f64(&mut self, addr: VAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write a shared `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: VAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Acquire a DSM lock (blocks in virtual time).
    pub fn acquire(&mut self, lock: LockId) {
        self.yield_op(Op::Acquire(lock));
    }

    /// Release a DSM lock (closes the interval: diffs + write notices).
    pub fn release(&mut self, lock: LockId) {
        self.yield_op(Op::Release(lock));
    }

    /// Cross the global barrier.
    pub fn barrier(&mut self) {
        self.yield_op(Op::Barrier);
    }

    /// Spin politely for `cycles` host cycles: the time is charged as
    /// synchronisation overhead, not computation (idle task-queue polling
    /// must not inflate the computation bucket of Tables 2–4).
    pub fn backoff(&mut self, cycles: u64) {
        self.yield_op(Op::Backoff(cycles));
    }

    /// Send an application-level message of `len` bytes to `dst`.
    /// `dirty_lines` models how much of the buffer sits dirty in the host
    /// cache (flushed before transmission, per the write-back discipline).
    pub fn send_to(
        &mut self,
        dst: u32,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        dirty_lines: u32,
    ) {
        assert!(dst < self.procs && dst != self.me, "bad destination");
        self.yield_op(Op::SendTo {
            dst,
            len,
            page,
            cacheable,
            dirty_lines,
            data: None,
        });
    }

    /// Send an application-level message carrying `data` (one simulated
    /// byte of payload per... precisely `data.len() * 8` bytes) to `dst`.
    /// This is the execution-driven message-passing path: the receiver's
    /// [`ProcCtx::recv_data`] gets the actual words.
    pub fn send_data(
        &mut self,
        dst: u32,
        data: Vec<u64>,
        page: Option<u64>,
        cacheable: bool,
        dirty_lines: u32,
    ) {
        assert!(dst < self.procs && dst != self.me, "bad destination");
        let len = (data.len() * 8) as u32;
        self.yield_op(Op::SendTo {
            dst,
            len,
            page,
            cacheable,
            dirty_lines,
            data: Some(Arc::new(data)),
        });
    }

    /// Block until an application-level message arrives; returns
    /// (sender, length).
    pub fn recv(&mut self) -> (u32, u32) {
        match self.yield_op(Op::Recv) {
            Reply::Received { src, len, .. } => (src, len),
            Reply::Ok => panic!("engine replied Ok to Recv"),
        }
    }

    /// Block until an application-level message arrives; returns the
    /// sender and the payload words (empty if the sender attached none).
    pub fn recv_data(&mut self) -> (u32, Arc<Vec<u64>>) {
        match self.yield_op(Op::Recv) {
            Reply::Received { src, data, .. } => {
                (src, data.unwrap_or_else(|| Arc::new(Vec::new())))
            }
            Reply::Ok => panic!("engine replied Ok to Recv"),
        }
    }

    /// Flush accumulated computation and signal completion. Called by the
    /// program wrapper after the user closure returns.
    pub fn finish(&mut self) {
        self.yield_op(Op::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_sim::{CoThread, Yield};

    const PAGE: usize = 64;

    /// A one-processor program over a `pages`-page segment of `space`.
    fn spawn(
        space: Arc<NodeSpace>,
        pages: usize,
        prog: impl FnOnce(&mut ProcCtx) + Send + 'static,
    ) -> CoThread<YieldMsg, Reply> {
        CoThread::spawn("cpu0", move |port| {
            let costs = AccessCosts { read: 1, write: 1 };
            let mut ctx = ProcCtx::new(0, 1, costs, space, pages, port);
            prog(&mut ctx);
            ctx.finish();
        })
    }

    fn op(y: Yield<YieldMsg>) -> Op {
        match y {
            Yield::Request(m) => m.op,
            Yield::Finished => panic!("program finished early"),
        }
    }

    #[test]
    fn in_place_invalidation_reaches_a_cached_page() {
        let space = Arc::new(NodeSpace::new(PAGE, 32));
        let addr = VAddr::of_page(PageId(1), PAGE).add(8);
        let mut co = spawn(space.clone(), 2, move |ctx| {
            assert_eq!(ctx.read_u64(addr), 7);
            ctx.barrier();
            assert_eq!(ctx.read_u64(addr), 9);
        });
        assert_eq!(op(co.start()), Op::ReadFault(PageId(1)));
        let page = space.page(PageId(1));
        page.frame.store(1, 7);
        page.flags.set_state(access::READ);
        assert_eq!(op(co.resume(Reply::Ok)), Op::Barrier);
        // A write notice: the DSM node invalidates the copy in place, so
        // the processor's cached slot must fault on its next read.
        page.flags.set_state(access::INVALID);
        assert_eq!(op(co.resume(Reply::Ok)), Op::ReadFault(PageId(1)));
        page.frame.store(1, 9);
        page.flags.set_state(access::READ);
        assert_eq!(op(co.resume(Reply::Ok)), Op::Done);
        assert!(matches!(co.resume(Reply::Ok), Yield::Finished));
    }

    #[test]
    #[should_panic(expected = "VAddr(0x80000080) is outside the allocated segment of 2 pages")]
    fn read_past_the_segment_panics() {
        let space = Arc::new(NodeSpace::new(PAGE, 32));
        let mut co = spawn(space, 2, |ctx| {
            ctx.read_u64(VAddr::of_page(PageId(2), PAGE));
        });
        let _ = co.start();
    }

    #[test]
    #[should_panic(expected = "VAddr(0x40) is outside the allocated segment")]
    fn write_below_the_segment_panics() {
        let space = Arc::new(NodeSpace::new(PAGE, 32));
        let mut co = spawn(space, 2, |ctx| ctx.write_u64(VAddr(0x40), 1));
        let _ = co.start();
    }
}
