//! A timing-free cluster harness: N protocol engines wired back-to-back.
//!
//! [`DsmCluster`] delivers protocol messages synchronously (FIFO, no
//! simulated time), which makes it the reference semantics for protocol
//! correctness: the integration tests drive application-level access
//! patterns through it and assert release-consistency guarantees. The
//! timed simulation in the `cni` facade crate routes exactly the same
//! messages through the NIC/ATM models instead.

use crate::node::{DsmConfig, DsmNode, HandleResult, Wakeup, Work};
use crate::protocol::Msg;
use crate::space::{access, NodeSpace};
use crate::types::{LockId, PageId, ProcId, VAddr};
use std::collections::VecDeque;
use std::sync::Arc;

/// A synchronous DSM cluster.
///
/// ```
/// use cni_dsm::{DsmCluster, DsmConfig, LockId, ProcId};
///
/// let mut c = DsmCluster::new(DsmConfig {
///     procs: 2,
///     page_bytes: 2048,
///     line_bytes: 32,
///     tree_barrier: false,
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
    spaces: Vec<Arc<NodeSpace>>,
    queue: VecDeque<Msg>,
    wakeups: Vec<Vec<Wakeup>>,
    next_page: u32,
    total_work: Work,
    messages: u64,
}

impl DsmCluster {
    /// Build a cluster of `cfg.procs` engines.
    pub fn new(cfg: DsmConfig) -> Self {
        let spaces: Vec<Arc<NodeSpace>> = (0..cfg.procs)
            .map(|_| Arc::new(NodeSpace::new(cfg.page_bytes, cfg.line_bytes)))
            .collect();
        let nodes = (0..cfg.procs)
            .map(|p| DsmNode::new(ProcId(p as u32), cfg, spaces[p].clone()))
            .collect();
        DsmCluster {
            nodes,
            spaces,
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
    pub fn space(&self, p: ProcId) -> &Arc<NodeSpace> {
        &self.spaces[p.0 as usize]
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
        let h = self.spaces[p.0 as usize].page(page);
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
        let h = self.spaces[p.0 as usize].page(page);
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
            .mark_dirty(self.spaces[p.0 as usize].line_of(addr.offset(self.cfg.page_bytes)));
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
