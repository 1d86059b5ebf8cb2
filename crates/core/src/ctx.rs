//! The application programming interface: what a simulated processor's
//! program sees.
//!
//! A program is an `async` body borrowing a [`ProcCtx`] (see
//! [`crate::program`]), and every operation that may reach the engine is
//! awaited. Shared-memory reads and writes return hand-written futures
//! ([`ReadU64`], [`ReadF64`], [`WriteU64`]) whose first poll runs the fast
//! path — one plain load of the page's access state plus the word access,
//! and for a write one dirty bit whose line index is a shift — inline in
//! the program's own state machine: the read and write futures' polls are
//! `#[inline(always)]`, and only the first touch of a page and a fault
//! call out of line. A program *yields* to the
//! simulation engine only on faults, synchronisation, message passing, and
//! at termination: it posts the operation to its mailbox and returns
//! `Pending`, and the engine polls it again with the reply. Computation is
//! charged with [`ProcCtx::compute`] and batched locally, so the hand-off
//! cost is paid per simulated *communication event*, not per arithmetic
//! operation (the execution-driven trade Proteus made).
//!
//! The fast path finds a page through a dense per-processor table indexed
//! by [`PageId`]: the world allocates page ids contiguously from 0, so the
//! table is sized once to the segment and a hit is one bounds-checked slot
//! load — no hashing, no refcount traffic. A slot is filled on the
//! processor's first touch of the page with the node's [`PageHandle`], a
//! single `Rc` over the page's words and access state. The DSM protocol
//! mutates that page in place (state changes, diffs, page fills) and never
//! replaces it, so a handle cached for the whole run stays current. An
//! address outside the segment panics.

use cni_dsm::NodeSpace;
use cni_dsm::{access, LockId, Page, PageHandle, PageId, VAddr, SHARED_BASE};
use cni_sim::{Call, Mailbox};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll};

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
pub struct ProcCtx {
    me: u32,
    procs: u32,
    page_bytes: usize,
    /// log2 of the cache-line size, which `NodeSpace::new` requires to be
    /// a power of two: a byte offset's line index is one shift.
    line_shift: u32,
    costs: AccessCosts,
    space: Rc<NodeSpace>,
    /// Slot `i` caches this node's handle to page `i` once touched.
    pages: Box<[Option<PageHandle>]>,
    pending: u64,
    mailbox: Mailbox<YieldMsg, Reply>,
}

impl ProcCtx {
    /// Engine-side constructor (used by the world's program wrapper).
    /// `pages` is the size of the shared segment in pages.
    pub fn new(
        me: u32,
        procs: u32,
        costs: AccessCosts,
        space: Rc<NodeSpace>,
        pages: usize,
        mailbox: Mailbox<YieldMsg, Reply>,
    ) -> Self {
        ProcCtx {
            me,
            procs,
            page_bytes: space.page_bytes(),
            line_shift: space.line_bytes().trailing_zeros(),
            costs,
            space,
            pages: (0..pages).map(|_| None).collect(),
            pending: 0,
            mailbox,
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

    /// The accumulated computation and `op`, as one yield.
    fn yield_msg(&mut self, op: Op) -> YieldMsg {
        YieldMsg {
            pending_cycles: std::mem::take(&mut self.pending),
            op,
        }
    }

    fn yield_op(&mut self, op: Op) -> Call<'_, YieldMsg, Reply> {
        let msg = self.yield_msg(op);
        self.mailbox.call(msg)
    }

    /// Post a fault for the engine; the access future then suspends, and
    /// its next poll retries the access.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, op: Op) {
        let msg = self.yield_msg(op);
        self.mailbox.post(msg);
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

    /// One attempt at a shared read: the word, or a posted fault.
    #[inline(always)]
    fn poll_read(&mut self, addr: VAddr) -> Poll<u64> {
        let (slot, off) = self.locate(addr);
        loop {
            let Some(p) = self.cached(slot) else {
                self.first_touch(addr, slot);
                continue;
            };
            if p.flags.state() != access::INVALID {
                let v = p.frame.load(off / 8);
                self.pending += self.costs.read;
                return Poll::Ready(v);
            }
            self.fault(Op::ReadFault(PageId(slot as u32)));
            return Poll::Pending;
        }
    }

    /// One attempt at a shared write, recording the dirty cache line for
    /// the flush model; or a posted fault.
    #[inline(always)]
    fn poll_write(&mut self, addr: VAddr, v: u64) -> Poll<()> {
        let (slot, off) = self.locate(addr);
        loop {
            let Some(p) = self.cached(slot) else {
                self.first_touch(addr, slot);
                continue;
            };
            if p.flags.state() == access::WRITE {
                p.frame.store(off / 8, v);
                p.flags.mark_dirty(off >> self.line_shift);
                self.pending += self.costs.write;
                return Poll::Ready(());
            }
            self.fault(Op::WriteFault(PageId(slot as u32)));
            return Poll::Pending;
        }
    }

    /// Read a shared 64-bit word. Faults transparently.
    #[inline]
    pub fn read_u64(&mut self, addr: VAddr) -> ReadU64<'_> {
        ReadU64 { ctx: self, addr }
    }

    /// Write a shared 64-bit word. Faults transparently.
    #[inline]
    pub fn write_u64(&mut self, addr: VAddr, v: u64) -> WriteU64<'_> {
        WriteU64 { ctx: self, addr, v }
    }

    /// Read a shared `f64`.
    #[inline]
    pub fn read_f64(&mut self, addr: VAddr) -> ReadF64<'_> {
        ReadF64(self.read_u64(addr))
    }

    /// Write a shared `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: VAddr, v: f64) -> WriteU64<'_> {
        self.write_u64(addr, v.to_bits())
    }

    /// Acquire a DSM lock (blocks in virtual time).
    pub async fn acquire(&mut self, lock: LockId) {
        self.yield_op(Op::Acquire(lock)).await;
    }

    /// Release a DSM lock (closes the interval: diffs + write notices).
    pub async fn release(&mut self, lock: LockId) {
        self.yield_op(Op::Release(lock)).await;
    }

    /// Cross the global barrier.
    pub async fn barrier(&mut self) {
        self.yield_op(Op::Barrier).await;
    }

    /// Spin politely for `cycles` host cycles: the time is charged as
    /// synchronisation overhead, not computation (idle task-queue polling
    /// must not inflate the computation bucket of Tables 2–4).
    pub async fn backoff(&mut self, cycles: u64) {
        self.yield_op(Op::Backoff(cycles)).await;
    }

    /// Send an application-level message of `len` bytes to `dst`.
    /// `dirty_lines` models how much of the buffer sits dirty in the host
    /// cache (flushed before transmission, per the write-back discipline).
    pub async fn send_to(
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
        })
        .await;
    }

    /// Send an application-level message carrying `data` (one simulated
    /// byte of payload per... precisely `data.len() * 8` bytes) to `dst`.
    /// This is the execution-driven message-passing path: the receiver's
    /// [`ProcCtx::recv_data`] gets the actual words.
    pub async fn send_data(
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
        })
        .await;
    }

    /// Block until an application-level message arrives; returns
    /// (sender, length).
    pub async fn recv(&mut self) -> (u32, u32) {
        match self.yield_op(Op::Recv).await {
            Reply::Received { src, len, .. } => (src, len),
            Reply::Ok => panic!("engine replied Ok to Recv"),
        }
    }

    /// Block until an application-level message arrives; returns the
    /// sender and the payload words (empty if the sender attached none).
    pub async fn recv_data(&mut self) -> (u32, Arc<Vec<u64>>) {
        match self.yield_op(Op::Recv).await {
            Reply::Received { src, data, .. } => {
                (src, data.unwrap_or_else(|| Arc::new(Vec::new())))
            }
            Reply::Ok => panic!("engine replied Ok to Recv"),
        }
    }

    /// Flush accumulated computation and signal completion. Called by the
    /// program wrapper after the user closure returns.
    pub async fn finish(&mut self) {
        self.yield_op(Op::Done).await;
    }
}

/// The future of [`ProcCtx::read_u64`]: its first poll runs the fast path
/// and suspends only to post a read fault, retrying after the engine
/// resolved it.
#[must_use = "a shared read does nothing unless awaited"]
pub struct ReadU64<'a> {
    ctx: &'a mut ProcCtx,
    addr: VAddr,
}

impl Future for ReadU64<'_> {
    type Output = u64;

    #[inline(always)]
    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<u64> {
        let addr = self.addr;
        self.ctx.poll_read(addr)
    }
}

/// The future of [`ProcCtx::read_f64`]: a [`ReadU64`] of the bits.
#[must_use = "a shared read does nothing unless awaited"]
pub struct ReadF64<'a>(ReadU64<'a>);

impl Future for ReadF64<'_> {
    type Output = f64;

    #[inline(always)]
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<f64> {
        Pin::new(&mut self.0).poll(cx).map(f64::from_bits)
    }
}

/// The future of [`ProcCtx::write_u64`] and [`ProcCtx::write_f64`]: its
/// first poll runs the fast path and suspends only to post a write
/// fault, retrying after the engine resolved it.
#[must_use = "a shared write does nothing unless awaited"]
pub struct WriteU64<'a> {
    ctx: &'a mut ProcCtx,
    addr: VAddr,
    v: u64,
}

impl Future for WriteU64<'_> {
    type Output = ();

    #[inline(always)]
    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let (addr, v) = (self.addr, self.v);
        self.ctx.poll_write(addr, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{program, Program};
    use cni_sim::{Task, Yield};

    const PAGE: usize = 64;

    /// A one-processor program over a `pages`-page segment of `space`,
    /// wrapped as the world wraps it.
    fn spawn(space: Rc<NodeSpace>, pages: usize, prog: Program) -> Task<YieldMsg, Reply> {
        Task::spawn("cpu0", move |mailbox| async move {
            let costs = AccessCosts { read: 1, write: 1 };
            let mut ctx = ProcCtx::new(0, 1, costs, space, pages, mailbox);
            prog(&mut ctx).await;
            ctx.finish().await;
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
        let space = Rc::new(NodeSpace::new(PAGE, 32));
        let addr = VAddr::of_page(PageId(1), PAGE).add(8);
        let prog = program(move |ctx| {
            Box::pin(async move {
                assert_eq!(ctx.read_u64(addr).await, 7);
                ctx.barrier().await;
                assert_eq!(ctx.read_u64(addr).await, 9);
            })
        });
        let mut task = spawn(space.clone(), 2, prog);
        assert_eq!(op(task.start()), Op::ReadFault(PageId(1)));
        let page = space.page(PageId(1));
        page.frame.store(1, 7);
        page.flags.set_state(access::READ);
        assert_eq!(op(task.resume(Reply::Ok)), Op::Barrier);
        // A write notice: the DSM node invalidates the copy in place, so
        // the processor's cached slot must fault on its next read.
        page.flags.set_state(access::INVALID);
        assert_eq!(op(task.resume(Reply::Ok)), Op::ReadFault(PageId(1)));
        page.frame.store(1, 9);
        page.flags.set_state(access::READ);
        assert_eq!(op(task.resume(Reply::Ok)), Op::Done);
        assert!(matches!(task.resume(Reply::Ok), Yield::Finished));
    }

    /// The dirty-line index is a shift: a write at byte offset `off`
    /// marks line `off / line_bytes` and no other, for every line size
    /// from one word to the whole page.
    #[test]
    fn a_write_marks_exactly_its_own_line_dirty() {
        const BIG: usize = 256;
        for line in [8, 32, 64, BIG] {
            let space = Rc::new(NodeSpace::new(BIG, line));
            let page = space.page(PageId(0));
            page.flags.set_state(access::WRITE);
            let prog = program(move |ctx| {
                Box::pin(async move {
                    for off in (0..BIG).step_by(8) {
                        let addr = VAddr::of_page(PageId(0), BIG).add(off as u64);
                        // One line is marked...
                        ctx.write_u64(addr, 1).await;
                        assert_eq!(page.flags.take_dirty_lines(), 1, "line {line}, off {off}");
                        // ...and it is line `off / line`.
                        ctx.write_u64(addr, 2).await;
                        page.flags.mark_dirty(off / line);
                        assert_eq!(page.flags.take_dirty_lines(), 1, "line {line}, off {off}");
                    }
                })
            });
            assert_eq!(op(spawn(space, 1, prog).start()), Op::Done);
        }
    }

    #[test]
    #[should_panic(expected = "VAddr(0x80000080) is outside the allocated segment of 2 pages")]
    fn read_past_the_segment_panics() {
        let space = Rc::new(NodeSpace::new(PAGE, 32));
        let prog = program(|ctx| {
            Box::pin(async move {
                ctx.read_u64(VAddr::of_page(PageId(2), PAGE)).await;
            })
        });
        let _ = spawn(space, 2, prog).start();
    }

    #[test]
    #[should_panic(expected = "VAddr(0x40) is outside the allocated segment")]
    fn write_below_the_segment_panics() {
        let space = Rc::new(NodeSpace::new(PAGE, 32));
        let prog = program(|ctx| Box::pin(async move { ctx.write_u64(VAddr(0x40), 1).await }));
        let _ = spawn(space, 2, prog).start();
    }
}
