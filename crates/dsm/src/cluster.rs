//! A timing-free cluster harness: N protocol engines wired back-to-back.
//!
//! [`DsmCluster`] delivers protocol messages synchronously (FIFO, no
//! simulated time), which makes it the reference semantics for protocol
//! correctness: the integration tests drive application-level access
//! patterns through it and assert release-consistency guarantees. The
//! timed simulation in the `cni` facade crate routes exactly the same
//! messages through the NIC/ATM models instead.

use crate::node::{DsmConfig, DsmNode, HandleResult, Wakeup, Work};
use crate::notices::NoticeLog;
use crate::protocol::Msg;
use crate::space::{access, NodeSpace};
use crate::types::{LockId, PageId, ProcId, VAddr};
use std::collections::VecDeque;
use std::rc::Rc;

/// A synchronous DSM cluster.
///
/// ```
/// use cni_dsm::{DsmCluster, DsmConfig, LockId, ProcId};
///
/// let mut c = DsmCluster::new(DsmConfig {
///     procs: 2,
///     page_bytes: 2048,
///     line_bytes: 32,
///     barrier_arity: 2,
/// });
/// let base = c.alloc(2048);
/// c.acquire(ProcId(0), LockId(0));
/// c.write_u64(ProcId(0), base, 42);
/// c.release(ProcId(0), LockId(0));
/// c.acquire(ProcId(1), LockId(0));
/// assert_eq!(c.read_u64(ProcId(1), base), 42); // release consistency
/// c.release(ProcId(1), LockId(0));
/// ```
pub struct DsmCluster {
    cfg: DsmConfig,
    nodes: Vec<DsmNode>,
    queue: VecDeque<Msg>,
    wakeups: Vec<Vec<Wakeup>>,
    next_page: u32,
    total_work: Work,
    messages: u64,
}

impl DsmCluster {
    /// Build a cluster of `cfg.procs` engines sharing one notice log.
    pub fn new(cfg: DsmConfig) -> Self {
        let log = Rc::new(NoticeLog::default());
        let nodes = (0..cfg.procs)
            .map(|p| DsmNode::new(ProcId(p as u32), cfg, Rc::clone(&log)))
            .collect();
        DsmCluster {
            nodes,
            queue: VecDeque::new(),
            wakeups: vec![Vec::new(); cfg.procs],
            next_page: 0,
            total_work: Work::default(),
            messages: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Allocate `bytes` of shared memory (whole pages); homes are assigned
    /// round-robin, registered on every node, and initial copies installed
    /// there. Returns the base address.
    pub fn alloc(&mut self, bytes: usize) -> VAddr {
        let pages = bytes.div_ceil(self.cfg.page_bytes).max(1);
        let first = self.next_page;
        self.next_page += pages as u32;
        for p in first..self.next_page {
            let page = PageId(p);
            let home = ProcId(p % self.cfg.procs as u32);
            for node in &mut self.nodes {
                node.set_home(page, home);
            }
            self.nodes[home.0 as usize].init_home_page(page);
        }
        VAddr::of_page(PageId(first), self.cfg.page_bytes)
    }

    /// Engine for processor `p`.
    pub fn node(&self, p: ProcId) -> &DsmNode {
        &self.nodes[p.0 as usize]
    }

    /// Shared-memory space of processor `p`.
    pub fn space(&self, p: ProcId) -> &Rc<NodeSpace> {
        self.nodes[p.0 as usize].space()
    }

    /// Total protocol messages delivered.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total protocol labour performed.
    pub fn total_work(&self) -> Work {
        self.total_work
    }

    fn absorb(&mut self, p: usize, res: HandleResult) {
        self.total_work.add(&res.work);
        if let Some(w) = res.wakeup {
            self.wakeups[p].push(w);
        }
        self.queue.extend(res.out);
    }

    /// Deliver queued messages until quiescent.
    pub fn pump(&mut self) {
        while let Some(msg) = self.queue.pop_front() {
            self.messages += 1;
            let dst = msg.dst.0 as usize;
            let res = self.nodes[dst].on_message(msg);
            self.absorb(dst, res);
        }
    }

    /// Drain the wakeups recorded for `p`.
    pub fn take_wakeups(&mut self, p: ProcId) -> Vec<Wakeup> {
        std::mem::take(&mut self.wakeups[p.0 as usize])
    }

    fn wait_for(&mut self, p: ProcId, expect: Wakeup) {
        self.pump();
        let got = self.take_wakeups(p);
        assert!(
            got.contains(&expect),
            "proc {p:?} expected {expect:?}, got {got:?} (deadlock or protocol bug)"
        );
    }

    /// Read a shared word as processor `p`, faulting as needed.
    pub fn read_u64(&mut self, p: ProcId, addr: VAddr) -> u64 {
        let page = addr.page(self.cfg.page_bytes);
        let h = self.space(p).page(page);
        if h.flags.state() == access::INVALID {
            let res = self.nodes[p.0 as usize].on_read_fault(page);
            let done = res.wakeup.is_some();
            self.absorb(p.0 as usize, res);
            if !done {
                self.wait_for(p, Wakeup::FaultDone(page));
            } else {
                self.take_wakeups(p);
            }
        }
        h.frame.load(addr.word(self.cfg.page_bytes))
    }

    /// Write a shared word as processor `p`, faulting as needed.
    pub fn write_u64(&mut self, p: ProcId, addr: VAddr, v: u64) {
        let page = addr.page(self.cfg.page_bytes);
        let h = self.space(p).page(page);
        if h.flags.state() != access::WRITE {
            let res = self.nodes[p.0 as usize].on_write_fault(page);
            let done = res.wakeup.is_some();
            self.absorb(p.0 as usize, res);
            if !done {
                self.wait_for(p, Wakeup::FaultDone(page));
            } else {
                self.take_wakeups(p);
            }
        }
        h.frame.store(addr.word(self.cfg.page_bytes), v);
        h.flags
            .mark_dirty(self.space(p).line_of(addr.offset(self.cfg.page_bytes)));
    }

    /// Acquire `lock` as `p`; panics if it cannot complete synchronously
    /// (i.e. another processor holds it and never releases).
    pub fn acquire(&mut self, p: ProcId, lock: LockId) {
        let res = self.nodes[p.0 as usize].on_acquire(lock);
        let done = res.wakeup.is_some();
        self.absorb(p.0 as usize, res);
        if !done {
            self.wait_for(p, Wakeup::AcquireDone(lock));
        } else {
            self.take_wakeups(p);
        }
    }

    /// Release `lock` as `p`.
    pub fn release(&mut self, p: ProcId, lock: LockId) {
        let res = self.nodes[p.0 as usize].on_release(lock);
        self.absorb(p.0 as usize, res);
        self.pump();
    }

    /// Drive every processor through one barrier (arrival order = id
    /// order).
    pub fn barrier_all(&mut self) {
        let n = self.cfg.procs;
        for p in 0..n {
            let res = self.nodes[p].on_barrier();
            self.absorb(p, res);
        }
        self.pump();
        for p in 0..n {
            let got = self.take_wakeups(ProcId(p as u32));
            assert!(
                got.iter().any(|w| matches!(w, Wakeup::BarrierDone(_))),
                "proc {p} stuck at barrier: {got:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Payload;
    use crate::types::{LockId, VClock, WriteNotice};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One step of a random schedule. `Release(k)` releases the lock of
    /// the `k`-th holder (mod their count), and a barrier first releases
    /// every held lock. Steps the schedule's state forbids (a blocked
    /// processor acting, a nested acquire, a release with no holder, a
    /// barrier while a processor waits for a lock) are skipped.
    #[derive(Clone, Debug)]
    enum Op {
        Acquire(u32, u32),
        Release(usize),
        Read(u32, u64),
        Write(u32, u64, u64),
        Barrier,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..8, 0u32..3).prop_map(|(p, l)| Op::Acquire(p, l)),
            (0usize..8).prop_map(Op::Release),
            (0u32..8, 0u64..24).prop_map(|(p, w)| Op::Read(p, w)),
            (0u32..8, 0u64..24, 1u64..1000).prop_map(|(p, w, v)| Op::Write(p, w, v)),
            (0u32..8, 0u64..24, 1u64..1000).prop_map(|(p, w, v)| Op::Write(p, w, v)),
            Just(Op::Barrier),
        ]
    }

    /// A cluster driven one delivery at a time, with every notice each
    /// node has been delivered, checked after every handler.
    struct Checked {
        c: DsmCluster,
        /// Per node: every notice a grant or a barrier release delivered
        /// to it. A barrier's root applies the release it sends without
        /// receiving one, so each release also credits its sender.
        delivered: Vec<BTreeSet<(ProcId, u32, PageId)>>,
    }

    /// Pages the schedules share, 1 KB each.
    const PAGES: u32 = 3;

    fn key(n: &WriteNotice) -> (ProcId, u32, PageId) {
        (n.writer, n.interval, n.page)
    }

    impl Checked {
        fn absorb(&mut self, p: usize, res: HandleResult) {
            for m in &res.out {
                if let Payload::BarrierRelease { notices, .. } = &m.payload {
                    self.delivered[p].extend(notices.iter().map(key));
                }
            }
            self.c.absorb(p, res);
            self.check();
        }

        fn pump(&mut self) {
            while let Some(msg) = self.c.queue.pop_front() {
                let dst = msg.dst.0 as usize;
                let notices: &[WriteNotice] = match &msg.payload {
                    Payload::AcquireGrant { notices, .. } => notices,
                    Payload::BarrierRelease { notices, .. } => notices,
                    _ => &[],
                };
                self.delivered[dst].extend(notices.iter().map(key));
                let res = self.c.nodes[dst].on_message(msg);
                self.absorb(dst, res);
            }
        }

        /// Run one entry point of `p` and deliver everything it causes.
        fn drive(&mut self, p: u32, f: impl FnOnce(&mut DsmNode) -> HandleResult) {
            let res = f(&mut self.c.nodes[p as usize]);
            self.absorb(p as usize, res);
            self.pump();
        }

        /// Each node sees, of every other writer, exactly the notices
        /// delivered to it, and of itself everything it published; its
        /// page knowledge is the one those notices give.
        fn check(&self) {
            let procs = self.c.cfg.procs;
            for (p, node) in self.c.nodes.iter().enumerate() {
                let me = ProcId(p as u32);
                let mut own = Vec::new();
                node.notice_log()
                    .writer_notices_through(me, 0, u32::MAX, &mut own);
                let reference: BTreeSet<_> = self.delivered[p]
                    .iter()
                    .copied()
                    .filter(|&(w, _, _)| w != me)
                    .chain(own.iter().map(key))
                    .collect();
                let view = node.notices_since(&VClock::zero(procs));
                let seen: BTreeSet<_> = view.iter().map(key).collect();
                assert_eq!(seen.len(), view.len(), "node {p} sees a notice twice");
                assert_eq!(seen, reference, "node {p} of {:?}", self.c.cfg);
                for page in (0..PAGES).map(PageId) {
                    let mut dense = VClock::zero(procs);
                    for &(w, i, _) in reference.iter().filter(|n| n.2 == page) {
                        dense.raise(w, i);
                    }
                    let writers: Vec<_> = (0..procs as u32)
                        .map(ProcId)
                        .map(|w| (w, dense.get(w)))
                        .filter(|&(_, i)| i > 0)
                        .collect();
                    assert_eq!(node.writers_of(page), writers, "node {p}, {page:?}");
                    for w in (0..procs as u32).map(ProcId) {
                        assert_eq!(node.known(page, w), dense.get(w), "node {p}, {page:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The shared log read through a node's clock is exactly what the
        /// protocol delivered to it, after every delivery of random
        /// lock, barrier, read and write schedules on 2–8 processors under
        /// combining trees of fan-out N (the centralised barrier), 2 and 4.
        fn each_nodes_view_of_the_log_is_what_was_delivered_to_it(
            procs in 2u32..9,
            barrier in 0usize..3,
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            let cfg = DsmConfig {
                procs: procs as usize,
                page_bytes: 1024,
                line_bytes: 32,
                barrier_arity: [procs as usize, 2, 4][barrier],
            };
            let mut t = Checked {
                c: DsmCluster::new(cfg),
                delivered: vec![BTreeSet::new(); procs as usize],
            };
            let base = t.c.alloc(PAGES as usize * 1024);
            let addr = |w: u64| base.add(w * 128);
            let mut held: Vec<Option<LockId>> = vec![None; procs as usize];
            let mut waiting: Vec<Option<LockId>> = vec![None; procs as usize];
            for op in ops {
                match op {
                    Op::Acquire(p, l) => {
                        let (p, lock) = (p % procs, LockId(l));
                        if held[p as usize].is_some() || waiting[p as usize].is_some() {
                            continue;
                        }
                        t.drive(p, |n| n.on_acquire(lock));
                        waiting[p as usize] = Some(lock);
                    }
                    Op::Release(k) => {
                        let holders: Vec<u32> =
                            (0..procs).filter(|&p| held[p as usize].is_some()).collect();
                        let Some(&p) = holders.get(k % holders.len().max(1)) else {
                            continue;
                        };
                        let lock = held[p as usize].take().expect("a holder");
                        t.drive(p, |n| n.on_release(lock));
                    }
                    Op::Read(p, w) | Op::Write(p, w, _) => {
                        let p = p % procs;
                        if waiting[p as usize].is_some() {
                            continue;
                        }
                        let addr = addr(w);
                        let page = addr.page(1024);
                        let h = t.c.space(ProcId(p)).page(page);
                        let state = h.flags.state();
                        match op {
                            Op::Write(_, _, v) => {
                                if state != access::WRITE {
                                    t.drive(p, |n| n.on_write_fault(page));
                                }
                                h.frame.store(addr.word(1024), v);
                                let line = t.c.space(ProcId(p)).line_of(addr.offset(1024));
                                h.flags.mark_dirty(line);
                            }
                            _ if state == access::INVALID => {
                                t.drive(p, |n| n.on_read_fault(page));
                            }
                            _ => {}
                        }
                        let woke = t.c.take_wakeups(ProcId(p));
                        prop_assert!(h.flags.state() != access::INVALID, "{:?}", woke);
                    }
                    Op::Barrier => {
                        if waiting.iter().any(Option::is_some) {
                            continue;
                        }
                        for p in 0..procs {
                            if let Some(lock) = held[p as usize].take() {
                                t.drive(p, |n| n.on_release(lock));
                            }
                        }
                        for p in 0..procs {
                            let res = t.c.nodes[p as usize].on_barrier();
                            t.absorb(p as usize, res);
                        }
                        t.pump();
                        for p in (0..procs).map(ProcId) {
                            let woke = t.c.take_wakeups(p);
                            prop_assert!(
                                woke.iter().any(|w| matches!(w, Wakeup::BarrierDone(_))),
                                "{:?} stuck at the barrier", p
                            );
                        }
                    }
                }
                for p in 0..procs as usize {
                    for w in t.c.take_wakeups(ProcId(p as u32)) {
                        if let Wakeup::AcquireDone(lock) = w {
                            prop_assert_eq!(waiting[p].take(), Some(lock));
                            held[p] = Some(lock);
                        }
                    }
                }
            }
        }
    }
}
