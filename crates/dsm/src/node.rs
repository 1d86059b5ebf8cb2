//! The per-processor protocol engine: lazy invalidate release consistency.
//!
//! One [`DsmNode`] per processor implements the protocol of Keleher et
//! al. (the paper's reference 7) the paper's evaluation runs: per-processor *intervals* closed at
//! each release, *write notices* piggybacked on lock grants and barrier
//! releases, invalidation on uncovered notices, *twins* and word-level
//! *diffs* for concurrent write sharing, and full-page movement from the
//! most recent writer on access misses ("pages tend to move from the
//! releaser to the acquirer", §3.1).
//!
//! The engine is **timing-free**: every entry point returns the messages to
//! transport, an optional wakeup for the blocked application thread, and a
//! [`Work`] record of the data-movement labour performed. The cluster
//! simulation charges those to the host CPU (standard NIC) or to the NIC
//! processor as an Application Interrupt Handler (CNI) — the protocol logic
//! itself is identical in both configurations, exactly as in the paper.
//!
//! Lock management is distributed (manager = `lock mod N`, Li/Hudak-style
//! probable-owner forwarding with chained grant transfer); the barrier
//! manager is processor 0, or the root of a combining tree
//! ([`DsmConfig::tree_barrier`]).

use crate::diff::Diff;
use crate::notices::NoticeLog;
use crate::protocol::{Msg, Payload};
use crate::space::{access, NodeSpace};
use crate::types::{LockId, PageId, ProcId, VClock, WriteNotice};
use cni_trace::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Included};
use std::rc::Rc;
use std::sync::Arc;

/// Static DSM parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DsmConfig {
    /// Number of processors.
    pub procs: usize,
    /// Shared page size in bytes.
    pub page_bytes: usize,
    /// Host cache line size in bytes (dirty-line tracking granularity).
    pub line_bytes: usize,
    /// Use a combining-tree barrier instead of the centralised manager
    /// (extension: the manager serialises 2N messages at one node, which
    /// is the scalability bottleneck at 32 processors; the tree spreads
    /// them over log N levels).
    pub tree_barrier: bool,
    /// Fan-out of the combining tree (k-ary heap layout: the children of
    /// processor `i` are `k*i+1 ..= k*i+k`). 2 is the classic binary
    /// tree; a fabric-aware embedder raises it so each subtree matches a
    /// fat-tree leaf and combining traffic stays off the spine. Must be
    /// ≥ 2; ignored when `tree_barrier` is false.
    pub barrier_arity: usize,
}

/// Data-movement labour performed while handling one event; the cluster
/// simulation turns this into cycles on whichever processor ran the
/// protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Words copied to create twins.
    pub twin_words: u64,
    /// Words compared while creating diffs.
    pub diff_scan_words: u64,
    /// Words written by created or applied diffs.
    pub diff_words: u64,
    /// Words copied for full-page sends/receives.
    pub page_copy_words: u64,
    /// Write notices processed.
    pub notices: u64,
}

impl Work {
    /// Accumulate another record.
    pub fn add(&mut self, o: &Work) {
        self.twin_words += o.twin_words;
        self.diff_scan_words += o.diff_scan_words;
        self.diff_words += o.diff_words;
        self.page_copy_words += o.page_copy_words;
        self.notices += o.notices;
    }
}

/// Why the application thread may resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wakeup {
    /// The faulted page is now accessible.
    FaultDone(PageId),
    /// The lock is now held.
    AcquireDone(LockId),
    /// The barrier released.
    BarrierDone(u32),
}

/// Result of one protocol entry point.
#[derive(Debug, Default)]
pub struct HandleResult {
    /// Messages to transport.
    pub out: Vec<Msg>,
    /// Application wakeup, if the blocking operation completed.
    pub wakeup: Option<Wakeup>,
    /// Labour performed.
    pub work: Work,
    /// Pages whose dirty cache lines must be written back before the
    /// network interface can see a consistent copy (write-back flush
    /// discipline, §2.2 of the paper): (page, dirty lines).
    pub flushed: Vec<(PageId, u64)>,
}

/// Per-lock holder-side state.
#[derive(Debug, Default)]
struct HolderState {
    /// This processor possesses the token.
    held: bool,
    /// The application is inside the critical section.
    in_use: bool,
    /// Requests waiting for this processor to release.
    pending: VecDeque<(ProcId, VClock)>,
}

/// Barrier-manager state (processor 0 only).
#[derive(Debug)]
struct BarrierMgr {
    epoch: u32,
    arrived: u32,
    vc: VClock,
    notices: Vec<WriteNotice>,
}

/// What the application thread is blocked on.
#[derive(Debug)]
enum Blocked {
    Fault {
        page: PageId,
        want_write: bool,
        awaiting_page: bool,
        /// writer → requested `upto` interval, for outstanding diff fetches.
        outstanding: BTreeMap<ProcId, u32>,
        /// Diffs received but not yet applied; applied at completion in a
        /// linear extension of their causal order.
        buffered: Vec<(ProcId, u32, VClock, Diff)>,
        /// (writer, upto) coverage to commit into the page version when the
        /// buffered diffs are applied.
        committed: Vec<(ProcId, u32)>,
    },
    Acquire(LockId),
    Barrier(u32),
}

/// Protocol statistics for one processor.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DsmStats {
    /// Read faults taken.
    pub read_faults: u64,
    /// Write faults taken (including twin-only local ones).
    pub write_faults: u64,
    /// Full-page fetches issued.
    pub page_fetches: u64,
    /// Diff fetches issued.
    pub diff_fetches: u64,
    /// Lock acquires satisfied locally (lazy-release reuse).
    pub lock_local: u64,
    /// Lock acquires that went remote.
    pub lock_remote: u64,
    /// Releases performed.
    pub releases: u64,
    /// Barriers crossed.
    pub barriers: u64,
    /// Write notices received from others.
    pub notices_in: u64,
    /// Page invalidations performed.
    pub invalidations: u64,
    /// Intervals closed.
    pub intervals: u64,
}

/// One processor's protocol engine.
pub struct DsmNode {
    me: ProcId,
    cfg: DsmConfig,
    space: Rc<NodeSpace>,
    vc: VClock,
    /// The cluster's write notices, shared by every node; this node sees
    /// writer `w`'s entries up to `vc[w]`.
    log: Rc<NoticeLog>,
    /// Per page: writer intervals reflected in the local frame. Keyed:
    /// only pages this node holds a copy of have one.
    pv: BTreeMap<PageId, VClock>,
    /// Twins for pages written in the current interval.
    twins: BTreeMap<PageId, Vec<u64>>,
    /// Pages written in the current interval (insertion-ordered).
    dirty_pages: Vec<PageId>,
    /// Early diffs taken when a dirty page had to be invalidated.
    pending_self: BTreeMap<PageId, Diff>,
    /// Own diffs with their interval's vector time, keyed by
    /// (page, interval). Kept for the run's lifetime (bounded runs; a
    /// production system would garbage-collect at barriers).
    my_diffs: BTreeMap<(PageId, u32), (Diff, VClock)>,
    /// Manager side: probable owner per managed lock.
    probable: BTreeMap<LockId, ProcId>,
    /// Holder side: token state per lock.
    holders: BTreeMap<LockId, HolderState>,
    /// Per allocated page, indexed by id: its home. Sized with the log's
    /// page table; pages past it default to `page mod N`.
    homes: Vec<ProcId>,
    /// Barrier manager (processor 0).
    barrier_mgr: Option<BarrierMgr>,
    /// Next barrier epoch this processor will arrive at.
    barrier_epoch: u32,
    /// Own interval watermark already shipped at a barrier.
    barrier_shipped: u32,
    blocked: Option<Blocked>,
    stats: DsmStats,
    trace: TraceSink,
}

impl DsmNode {
    /// Engine for processor `me` of `cfg.procs`, operating on `space` and
    /// sharing the cluster's write-notice `log` with every other node.
    pub fn new(me: ProcId, cfg: DsmConfig, space: Rc<NodeSpace>, log: Rc<NoticeLog>) -> Self {
        let n = cfg.procs;
        assert!((me.0 as usize) < n, "proc id out of range");
        DsmNode {
            me,
            cfg,
            space,
            vc: VClock::zero(n),
            log,
            pv: BTreeMap::new(),
            twins: BTreeMap::new(),
            dirty_pages: Vec::new(),
            pending_self: BTreeMap::new(),
            my_diffs: BTreeMap::new(),
            probable: BTreeMap::new(),
            holders: BTreeMap::new(),
            homes: Vec::new(),
            barrier_mgr: (me.0 == 0 || cfg.tree_barrier).then(|| BarrierMgr {
                epoch: 0,
                arrived: 0,
                vc: VClock::zero(n),
                notices: Vec::new(),
            }),
            barrier_epoch: 0,
            barrier_shipped: 0,
            blocked: None,
            stats: DsmStats::default(),
            trace: TraceSink::Disabled,
        }
    }

    /// Attach a trace sink; protocol entry points record `Dsm*` events
    /// tagged with this processor's id as the node.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// This processor's id.
    pub fn id(&self) -> ProcId {
        self.me
    }

    /// The node's shared-memory space.
    pub fn space(&self) -> &Rc<NodeSpace> {
        &self.space
    }

    /// The cluster's write-notice log, which every node of the cluster
    /// shares.
    pub fn notice_log(&self) -> &Rc<NoticeLog> {
        &self.log
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DsmStats {
        self.stats
    }

    /// The manager of `lock`.
    pub fn lock_manager(&self, lock: LockId) -> ProcId {
        ProcId(lock.0 % self.cfg.procs as u32)
    }

    /// Is the application thread blocked on a write fault? Such a
    /// processor is the faulted page's next sender, the same reason
    /// [`DsmNode::has_written`] gives.
    pub fn awaits_write_fault(&self) -> bool {
        matches!(
            self.blocked,
            Some(Blocked::Fault {
                want_write: true,
                ..
            })
        )
    }

    /// Has this processor ever published a write to `page`? Used by the
    /// cluster's receive-caching policy: a node that writes a page is a
    /// future sender of it (the page migrates through it), so its board
    /// should keep the arriving copy.
    pub fn has_written(&self, page: PageId) -> bool {
        self.known(page, self.me) > 0
    }

    /// The home of `page` (initial copy holder): the placement registered
    /// at allocation, else round-robin.
    pub fn page_home(&self, page: PageId) -> ProcId {
        self.homes
            .get(page.0 as usize)
            .copied()
            .unwrap_or(ProcId(page.0 % self.cfg.procs as u32))
    }

    /// Register an allocated `page` and its home (allocation-time
    /// placement; must be called identically on every node). This is the
    /// only call that sizes the per-page tables, the node's homes and the
    /// shared log's pages: a page id read from a message never grows
    /// them. Pages skipped over keep the round-robin home.
    pub fn set_home(&mut self, page: PageId, home: ProcId) {
        let idx = page.0 as usize;
        if idx >= self.homes.len() {
            let procs = self.cfg.procs;
            let from = self.homes.len();
            self.homes
                .extend((from..=idx).map(|p| ProcId((p % procs) as u32)));
            self.log.register_page(page);
        }
        self.homes[idx] = home;
    }

    /// Install the initial (zero-filled) copy of `page` at its home. Must
    /// be called exactly on the home processor during allocation.
    pub fn init_home_page(&mut self, page: PageId) {
        debug_assert_eq!(self.page_home(page), self.me);
        let h = self.space.page(page);
        h.flags.set_state(access::READ);
        self.pv.insert(page, VClock::zero(self.cfg.procs));
    }

    // --- Page knowledge -------------------------------------------------------

    /// Highest interval `w` is known to have written `page` (0: none):
    /// its last write of the page the node's clock covers.
    pub(crate) fn known(&self, page: PageId, w: ProcId) -> u32 {
        self.log.last_write_through(page, w, self.vc.get(w))
    }

    /// The writers known to have written `page`, each with its highest
    /// known interval (never 0). Ascending by id: faults break ties and
    /// send diff requests in this order, and reports depend on it.
    pub(crate) fn writers_of(&self, page: PageId) -> Vec<(ProcId, u32)> {
        self.log.page_writers_through(page, &self.vc)
    }

    // --- Interval machinery -------------------------------------------------

    /// Close the current interval: diff every dirty page against its twin,
    /// create write notices, and downgrade write access. Runs at every
    /// release and barrier arrival.
    fn close_interval(&mut self, res: &mut HandleResult) {
        if self.dirty_pages.is_empty() && self.pending_self.is_empty() {
            return;
        }
        let work = &mut res.work;
        let i = self.vc.get(self.me) + 1;
        let mut any = false;
        let pages = std::mem::take(&mut self.dirty_pages);
        for p in pages {
            let h = self.space.page(p);
            let lines = h.flags.take_dirty_lines();
            if lines > 0 {
                res.flushed.push((p, lines));
            }
            let mut d = match self.twins.remove(&p) {
                Some(twin) => {
                    work.diff_scan_words += twin.len() as u64;
                    Diff::create(&twin, &h.frame)
                }
                // Twin already consumed by an early (invalidation-forced)
                // diff and the page was not re-faulted for writing.
                None => Diff::default(),
            };
            if let Some(early) = self.pending_self.remove(&p) {
                d = merge_diffs(early, d);
            }
            if h.flags.state() == access::WRITE {
                h.flags.set_state(access::READ);
            }
            if d.is_empty() {
                continue;
            }
            any = true;
            work.diff_words += d.words() as u64;
            let mut ivc = self.vc.clone();
            ivc.set(self.me, i);
            self.my_diffs.insert((p, i), (d, ivc));
            self.log.publish_write(self.me, i, p);
            self.pv
                .entry(p)
                .or_insert_with(|| VClock::zero(self.cfg.procs))
                .raise(self.me, i);
        }
        if any {
            self.vc.set(self.me, i);
            self.stats.intervals += 1;
        }
    }

    /// Every notice this node knows of that `vc` does not cover (grant
    /// piggybacking), ascending by `(writer, interval)`.
    pub(crate) fn notices_since(&self, vc: &VClock) -> Vec<WriteNotice> {
        let mut out = Vec::new();
        for w in (0..self.cfg.procs as u32).map(ProcId) {
            self.log
                .writer_notices_through(w, vc.get(w), self.vc.get(w), &mut out);
        }
        out
    }

    /// Own notices with interval beyond `floor` (barrier arrivals).
    fn own_notices_since(&self, floor: u32) -> Vec<WriteNotice> {
        let mut out = Vec::new();
        self.log
            .writer_notices_through(self.me, floor, self.vc.get(self.me), &mut out);
        out
    }

    /// Take in incoming notices: invalidate uncovered local copies (taking
    /// early diffs for pages the current interval has dirtied — concurrent
    /// write sharing). Nothing is stored: the message's clock, merged
    /// before this runs, already covers the notices in the shared log.
    ///
    /// `notices` must be ascending by `(writer, interval)`: a grant's come
    /// from the log writer by writer, and a barrier's root sorts the
    /// combined list once for every receiver. A notice for a page outside
    /// the allocated segment names no page this node can hold, and one from
    /// a writer outside the cluster names no processor; both are skipped.
    fn integrate_notices(&mut self, notices: &[WriteNotice], work: &mut Work) {
        debug_assert!(
            notices
                .windows(2)
                .all(|w| (w[0].writer, w[0].interval) <= (w[1].writer, w[1].interval)),
            "write notices out of (writer, interval) order"
        );
        let (me, segment, procs) = (self.me, self.log.segment_pages(), self.cfg.procs);
        for n in notices.iter().filter(|n| {
            n.writer != me && (n.page.0 as usize) < segment && (n.writer.0 as usize) < procs
        }) {
            work.notices += 1;
            self.stats.notices_in += 1;
            let covered = self
                .pv
                .get(&n.page)
                .map(|v| v.get(n.writer) >= n.interval)
                .unwrap_or(true); // no local copy: nothing to invalidate
            if !covered {
                self.invalidate_local(n.page, work);
            }
        }
    }

    /// Invalidate the local copy of `page`, preserving current-interval
    /// writes via an early diff.
    fn invalidate_local(&mut self, page: PageId, work: &mut Work) {
        let Some(h) = self.space.try_page(page) else {
            return;
        };
        if h.flags.state() == access::INVALID {
            return;
        }
        if h.flags.state() == access::WRITE {
            let twin = self
                .twins
                .remove(&page)
                // cni-lint: allow(panic-path) -- the twin is created by this node's own write fault; WRITE state without a twin is a protocol-engine bug, not corrupt input
                .expect("write-state page must have a twin");
            work.diff_scan_words += twin.len() as u64;
            let d = Diff::create(&twin, &h.frame);
            work.diff_words += d.words() as u64;
            let merged = match self.pending_self.remove(&page) {
                Some(early) => merge_diffs(early, d),
                None => d,
            };
            if !merged.is_empty() {
                self.pending_self.insert(page, merged);
            }
        }
        h.flags.set_state(access::INVALID);
        self.stats.invalidations += 1;
    }

    // --- Faults --------------------------------------------------------------

    /// The application read-faulted on `page`.
    pub fn on_read_fault(&mut self, page: PageId) -> HandleResult {
        self.stats.read_faults += 1;
        self.trace
            .emit(self.me.0, TraceEvent::DsmReadFault { page: page.0 });
        self.start_fault(page, false)
    }

    /// The application write-faulted on `page`.
    pub fn on_write_fault(&mut self, page: PageId) -> HandleResult {
        self.stats.write_faults += 1;
        self.trace
            .emit(self.me.0, TraceEvent::DsmWriteFault { page: page.0 });
        let h = self.space.page(page);
        if h.flags.state() == access::READ {
            // Twin-only fault: local.
            let mut res = HandleResult::default();
            self.make_writable(page, &mut res.work);
            res.wakeup = Some(Wakeup::FaultDone(page));
            return res;
        }
        self.start_fault(page, true)
    }

    fn make_writable(&mut self, page: PageId, work: &mut Work) {
        let h = self.space.page(page);
        if let std::collections::btree_map::Entry::Vacant(e) = self.twins.entry(page) {
            let twin = h.frame.snapshot();
            work.twin_words += twin.len() as u64;
            e.insert(twin);
            if !self.dirty_pages.contains(&page) {
                self.dirty_pages.push(page);
            }
        }
        self.pv
            .entry(page)
            .or_insert_with(|| VClock::zero(self.cfg.procs));
        h.flags.set_state(access::WRITE);
    }

    fn start_fault(&mut self, page: PageId, want_write: bool) -> HandleResult {
        let mut res = HandleResult::default();
        let h = self.space.page(page);
        if h.flags.state() != access::INVALID {
            // Spurious (state changed between the app's check and now).
            if want_write {
                self.make_writable(page, &mut res.work);
            }
            res.wakeup = Some(Wakeup::FaultDone(page));
            return res;
        }
        assert!(self.blocked.is_none(), "proc {:?} double-blocked", self.me);

        let pv = self.pv.get(&page);
        let base = pv.is_some();
        let needed: Vec<(ProcId, u32, u32)> = self
            .writers_of(page)
            .into_iter()
            .filter(|&(w, _)| w != self.me)
            .filter_map(|(w, upto)| {
                let fl = pv.map_or(0, |v| v.get(w));
                (upto > fl).then_some((w, fl, upto))
            })
            .collect();

        if needed.is_empty() {
            if base {
                // Base valid and nothing missing: re-grant access.
                if want_write {
                    self.make_writable(page, &mut res.work);
                } else {
                    h.flags.set_state(access::READ);
                }
                res.wakeup = Some(Wakeup::FaultDone(page));
                return res;
            }
            // Cold miss: fetch the initial copy from the page's home.
            self.stats.page_fetches += 1;
            res.out.push(Msg {
                src: self.me,
                dst: self.page_home(page),
                payload: Payload::PageReq {
                    page,
                    requester: self.me,
                },
            });
        } else {
            // Page-movement policy ("pages tend to move from the releaser
            // to the acquirer"): fetch the whole page from the writer with
            // the most recent known interval. In a causally ordered chain
            // (migratory data) that copy covers every missing interval; for
            // genuinely concurrent writers, [`apply_page_resp`] tops up
            // with diffs from the writers the served version lacks.
            let &(best, _, _) = needed
                .iter()
                .max_by_key(|&&(w, _, upto)| (upto, std::cmp::Reverse(w)))
                .expect("nonempty");
            self.stats.page_fetches += 1;
            res.out.push(Msg {
                src: self.me,
                dst: best,
                payload: Payload::PageReq {
                    page,
                    requester: self.me,
                },
            });
        }
        self.blocked = Some(Blocked::Fault {
            page,
            want_write,
            awaiting_page: true,
            outstanding: BTreeMap::new(),
            buffered: Vec::new(),
            committed: Vec::new(),
        });
        res
    }

    fn complete_fault(
        &mut self,
        page: PageId,
        want_write: bool,
        work: &mut Work,
    ) -> Option<Wakeup> {
        // Re-apply uncommitted local writes over freshly fetched data.
        if let Some(d) = self.pending_self.get(&page) {
            let h = self.space.page(page);
            d.apply(&h.frame);
            work.diff_words += d.words() as u64;
        }
        let h = self.space.page(page);
        if want_write {
            self.make_writable(page, work);
        } else {
            h.flags.set_state(access::READ);
        }
        Some(Wakeup::FaultDone(page))
    }

    // --- Locks ---------------------------------------------------------------

    /// First touch of a lock's holder state: the manager is born holding
    /// its token.
    fn holder_entry(&mut self, lock: LockId) -> &mut HolderState {
        let born_held = self.lock_manager(lock) == self.me;
        self.holders.entry(lock).or_insert_with(|| HolderState {
            held: born_held,
            ..Default::default()
        })
    }

    /// The application wants `lock`.
    pub fn on_acquire(&mut self, lock: LockId) -> HandleResult {
        let mut res = HandleResult::default();
        let hs = self.holder_entry(lock);
        if hs.held && !hs.in_use {
            hs.in_use = true;
            self.stats.lock_local += 1;
            self.trace.emit(
                self.me.0,
                TraceEvent::DsmAcquire {
                    lock: lock.0,
                    local: true,
                },
            );
            res.wakeup = Some(Wakeup::AcquireDone(lock));
            return res;
        }
        assert!(
            !(hs.held && hs.in_use),
            "re-acquire of a held lock {lock:?} by {:?}",
            self.me
        );
        assert!(self.blocked.is_none(), "proc {:?} double-blocked", self.me);
        self.stats.lock_remote += 1;
        self.trace.emit(
            self.me.0,
            TraceEvent::DsmAcquire {
                lock: lock.0,
                local: false,
            },
        );
        self.blocked = Some(Blocked::Acquire(lock));
        let vc = self.vc.clone();
        if self.lock_manager(lock) == self.me {
            self.manage_acquire(lock, self.me, vc, &mut res);
        } else {
            res.out.push(Msg {
                src: self.me,
                dst: self.lock_manager(lock),
                payload: Payload::AcquireReq {
                    lock,
                    requester: self.me,
                    vc,
                },
            });
        }
        res
    }

    /// Manager-side request routing.
    fn manage_acquire(
        &mut self,
        lock: LockId,
        requester: ProcId,
        vc: VClock,
        res: &mut HandleResult,
    ) {
        debug_assert_eq!(self.lock_manager(lock), self.me);
        let target = *self.probable.get(&lock).unwrap_or(&self.me);
        self.probable.insert(lock, requester);
        if target == self.me {
            self.local_enqueue_or_grant(lock, requester, vc, res);
        } else {
            res.out.push(Msg {
                src: self.me,
                dst: target,
                payload: Payload::AcquireFwd {
                    lock,
                    requester,
                    vc,
                },
            });
        }
    }

    fn local_enqueue_or_grant(
        &mut self,
        lock: LockId,
        requester: ProcId,
        vc: VClock,
        res: &mut HandleResult,
    ) {
        let hs = self.holder_entry(lock);
        if hs.held && !hs.in_use {
            debug_assert_ne!(requester, self.me, "self-grant outside acquire path");
            self.grant(lock, requester, &vc, res);
        } else {
            hs.pending.push_back((requester, vc));
        }
    }

    fn grant(&mut self, lock: LockId, to: ProcId, to_vc: &VClock, res: &mut HandleResult) {
        let notices = self.notices_since(to_vc);
        // cni-lint: allow(panic-path) -- grant() runs only for locks this node manages and has marked held; an unheld grant is a lock-manager bug
        let hs = self.holders.get_mut(&lock).expect("granting unheld lock");
        debug_assert!(hs.held && !hs.in_use);
        hs.held = false;
        let then_serve: Vec<(ProcId, VClock)> = hs.pending.drain(..).collect();
        res.out.push(Msg {
            src: self.me,
            dst: to,
            payload: Payload::AcquireGrant {
                lock,
                vc: self.vc.clone(),
                notices,
                then_serve,
            },
        });
    }

    /// The application releases `lock`. Closes the interval and passes the
    /// token to the next queued requester, if any.
    pub fn on_release(&mut self, lock: LockId) -> HandleResult {
        let mut res = HandleResult::default();
        self.stats.releases += 1;
        self.trace
            .emit(self.me.0, TraceEvent::DsmRelease { lock: lock.0 });
        self.close_interval(&mut res);
        let hs = self
            .holders
            .get_mut(&lock)
            .expect("release of unknown lock");
        assert!(hs.held && hs.in_use, "release of unheld lock {lock:?}");
        hs.in_use = false;
        if let Some((next, next_vc)) = hs.pending.pop_front() {
            debug_assert_ne!(next, self.me);
            self.grant(lock, next, &next_vc, &mut res);
        }
        res
    }

    // --- Barrier ---------------------------------------------------------------

    /// The application reached a barrier.
    pub fn on_barrier(&mut self) -> HandleResult {
        let mut res = HandleResult::default();
        self.stats.barriers += 1;
        self.close_interval(&mut res);
        let epoch = self.barrier_epoch;
        self.trace.emit(self.me.0, TraceEvent::DsmBarrier { epoch });
        let notices = self.own_notices_since(self.barrier_shipped);
        self.barrier_shipped = self.vc.get(self.me);
        assert!(self.blocked.is_none(), "proc {:?} double-blocked", self.me);
        self.blocked = Some(Blocked::Barrier(epoch));
        if self.me.0 == 0 || self.cfg.tree_barrier {
            // Centralised manager, or any tree node: combine the local
            // arrival (interior tree nodes forward upward once their
            // subtree is complete).
            let vc = self.vc.clone();
            self.barrier_arrive(epoch, self.me, vc, notices, &mut res);
        } else {
            res.out.push(Msg {
                src: self.me,
                dst: ProcId(0),
                payload: Payload::BarrierArrive {
                    epoch,
                    proc: self.me,
                    vc: self.vc.clone(),
                    notices,
                },
            });
        }
        res
    }

    /// Combining-tree children of this processor (k-ary heap layout:
    /// children of `i` are `k*i+1 ..= k*i+k`).
    fn tree_children(&self) -> impl Iterator<Item = ProcId> {
        let n = self.cfg.procs as u32;
        let k = self.cfg.barrier_arity.max(2) as u32;
        let me = self.me.0;
        (k * me + 1..=k * me + k)
            .filter(move |&c| c < n)
            .map(ProcId)
    }

    /// Combining-tree parent of this processor (`(i-1)/k`; only
    /// meaningful for `me != 0`).
    fn tree_parent(&self) -> ProcId {
        let k = self.cfg.barrier_arity.max(2) as u32;
        ProcId((self.me.0 - 1) / k)
    }

    /// How many arrivals this processor combines before passing up: its
    /// own plus one per subtree child (tree mode), or all N (centralised
    /// manager at processor 0).
    fn barrier_expected(&self) -> u32 {
        if self.cfg.tree_barrier {
            1 + self.tree_children().count() as u32
        } else {
            self.cfg.procs as u32
        }
    }

    fn barrier_arrive(
        &mut self,
        epoch: u32,
        _proc: ProcId,
        vc: VClock,
        notices: Vec<WriteNotice>,
        res: &mut HandleResult,
    ) {
        let expected = self.barrier_expected();
        let mgr = self
            .barrier_mgr
            .as_mut()
            // cni-lint: allow(panic-path) -- only the configured barrier manager node receives BarrierArrive; missing combining state is a routing bug in this engine
            .expect("barrier combining state present");
        debug_assert_eq!(mgr.epoch, epoch, "barrier epoch skew");
        mgr.arrived += 1;
        mgr.vc.merge(&vc);
        mgr.notices.extend(notices);
        if mgr.arrived < expected {
            return;
        }
        let combined_vc = mgr.vc.clone();
        let mut combined_notices = std::mem::take(&mut mgr.notices);
        mgr.arrived = 0;
        mgr.epoch += 1;
        if self.cfg.tree_barrier && self.me.0 != 0 {
            // Subtree complete: pass the combined arrival to the parent;
            // the release will come back down the tree.
            res.out.push(Msg {
                src: self.me,
                dst: self.tree_parent(),
                payload: Payload::BarrierArrive {
                    epoch,
                    proc: self.me,
                    vc: combined_vc,
                    notices: combined_notices,
                },
            });
            return;
        }
        // Root (or centralised manager): release. Sort the union once here;
        // every receiver shares this one list and walks it in order.
        combined_notices.sort_unstable_by_key(|n| (n.writer, n.interval, n.page));
        let combined_notices: Arc<[WriteNotice]> = combined_notices.into();
        self.send_barrier_release(epoch, &combined_vc, &combined_notices, &mut res.out);
        let mut work = Work::default();
        let wakeup = self.apply_barrier_release(epoch, &combined_vc, &combined_notices, &mut work);
        res.work.add(&work);
        res.wakeup = wakeup;
    }

    fn apply_barrier_release(
        &mut self,
        epoch: u32,
        vc: &VClock,
        notices: &[WriteNotice],
        work: &mut Work,
    ) -> Option<Wakeup> {
        self.vc.merge_except(vc, self.me);
        self.integrate_notices(notices, work);
        self.barrier_epoch = epoch + 1;
        match self.blocked {
            Some(Blocked::Barrier(e)) if e == epoch => {
                self.blocked = None;
                Some(Wakeup::BarrierDone(epoch))
            }
            _ => None,
        }
    }

    /// Send a barrier release on, sharing its notice list: the centralised
    /// manager sends it to every other processor, and a tree node to its
    /// children (the root first, then every interior node before applying
    /// the release it received).
    fn send_barrier_release(
        &self,
        epoch: u32,
        vc: &VClock,
        notices: &Arc<[WriteNotice]>,
        out: &mut Vec<Msg>,
    ) {
        let release = |dst| Msg {
            src: self.me,
            dst,
            payload: Payload::BarrierRelease {
                epoch,
                vc: vc.clone(),
                notices: Arc::clone(notices),
            },
        };
        if self.cfg.tree_barrier {
            out.extend(self.tree_children().map(release));
        } else if self.me.0 == 0 {
            out.extend((1..self.cfg.procs as u32).map(ProcId).map(release));
        }
    }

    // --- Message dispatch -------------------------------------------------------

    /// Handle an incoming protocol message.
    pub fn on_message(&mut self, msg: Msg) -> HandleResult {
        debug_assert_eq!(msg.dst, self.me, "misrouted message");
        self.trace.emit(
            self.me.0,
            TraceEvent::DsmMsg {
                kind: msg.payload.kind(),
                from: msg.src.0,
            },
        );
        let mut res = HandleResult::default();
        let mut work = Work::default();
        match msg.payload {
            Payload::AcquireReq {
                lock,
                requester,
                vc,
            } => {
                self.manage_acquire(lock, requester, vc, &mut res);
            }
            Payload::AcquireFwd {
                lock,
                requester,
                vc,
            } => {
                self.local_enqueue_or_grant(lock, requester, vc, &mut res);
            }
            Payload::AcquireGrant {
                lock,
                vc,
                notices,
                then_serve,
            } => {
                self.vc.merge_except(&vc, self.me);
                self.integrate_notices(&notices, &mut work);
                let hs = self.holders.entry(lock).or_default();
                debug_assert!(!hs.held);
                hs.held = true;
                hs.in_use = true;
                hs.pending.extend(then_serve);
                match self.blocked {
                    Some(Blocked::Acquire(l)) if l == lock => {
                        self.blocked = None;
                        res.wakeup = Some(Wakeup::AcquireDone(lock));
                    }
                    // cni-lint: allow(panic-path) -- a LockGrant only ever answers this node's own AcquireReq; any other blocked state is a protocol-engine bug
                    ref b => panic!("grant for {lock:?} while {:?} blocked on {b:?}", self.me),
                }
            }
            Payload::BarrierArrive {
                epoch,
                proc,
                vc,
                notices,
            } => {
                self.barrier_arrive(epoch, proc, vc, notices, &mut res);
            }
            Payload::BarrierRelease { epoch, vc, notices } => {
                self.send_barrier_release(epoch, &vc, &notices, &mut res.out);
                res.wakeup = self.apply_barrier_release(epoch, &vc, &notices, &mut work);
            }
            Payload::PageReq { page, requester } => {
                // Serve the current frame with its version vector. The
                // frame always has a base here: home pages are installed at
                // allocation, and any other serving processor must have
                // faulted the page in before writing it.
                let h = self.space.page(page);
                let data = h.frame.snapshot();
                work.page_copy_words += data.len() as u64;
                let version = self
                    .pv
                    .get(&page)
                    .cloned()
                    .unwrap_or_else(|| VClock::zero(self.cfg.procs));
                res.out.push(Msg {
                    src: self.me,
                    dst: requester,
                    payload: Payload::PageResp {
                        page,
                        version,
                        data,
                    },
                });
            }
            Payload::PageResp {
                page,
                version,
                data,
            } => {
                res.wakeup = self.apply_page_resp(page, version, data, &mut work, &mut res.out);
            }
            Payload::DiffReq {
                page,
                requester,
                floor,
                upto,
            } => {
                // Only the diffs held are walked, so a forged range costs
                // nothing; an empty or inverted one is answered empty.
                let mut intervals = Vec::new();
                let mut vcs = Vec::new();
                let mut diffs = Vec::new();
                if floor < upto {
                    let held = self
                        .my_diffs
                        .range((Excluded((page, floor)), Included((page, upto))));
                    for (&(_, i), (d, ivc)) in held {
                        work.diff_words += d.words() as u64;
                        intervals.push(i);
                        vcs.push(ivc.clone());
                        diffs.push(d.clone());
                    }
                }
                res.out.push(Msg {
                    src: self.me,
                    dst: requester,
                    payload: Payload::DiffResp {
                        page,
                        writer: self.me,
                        intervals,
                        vcs,
                        diffs,
                    },
                });
            }
            Payload::DiffResp {
                page,
                writer,
                intervals,
                vcs,
                diffs,
            } => {
                res.wakeup = self.apply_diff_resp(page, writer, intervals, vcs, diffs, &mut work);
            }
        }
        res.work.add(&work);
        res
    }

    fn apply_page_resp(
        &mut self,
        page: PageId,
        version: VClock,
        data: Vec<u64>,
        work: &mut Work,
        out: &mut Vec<Msg>,
    ) -> Option<Wakeup> {
        let (want_write, fault_page) = match &self.blocked {
            Some(Blocked::Fault {
                page: p,
                want_write,
                awaiting_page: true,
                ..
            }) => (*want_write, *p),
            // Not waiting for a page: a duplicate or forged reply. Drop it
            // before it touches a frame.
            _ => return None,
        };
        debug_assert_eq!(fault_page, page, "PageResp for wrong page");
        let h = self.space.page(page);
        if data.len() != h.frame.len() {
            // Not one page: a forged reply. Drop it; the fault keeps
            // waiting for the real one.
            return None;
        }
        h.frame.fill_from(&data);
        work.page_copy_words += data.len() as u64;
        let pv = version;
        // The served copy may lack writes the frame must regain before the
        // fault completes: our own committed intervals (restored from the
        // local diff store) and other writers' intervals we know about but
        // the server had not applied. ALL of them — local and remote — are
        // buffered and applied together in causal order at completion;
        // applying our own diffs eagerly here would let a causally-earlier
        // remote diff arrive later and clobber a causally-later local
        // write.
        let mut buffered: Vec<(ProcId, u32, VClock, Diff)> = Vec::new();
        let mut committed: Vec<(ProcId, u32)> = Vec::new();
        let me = self.me;
        let my_k = self.known(page, me);
        if my_k > pv.get(me) {
            let own = self
                .my_diffs
                .range((Excluded((page, pv.get(me))), Included((page, my_k))));
            buffered.extend(own.map(|(&(_, i), (d, ivc))| (me, i, ivc.clone(), d.clone())));
            committed.push((me, my_k));
        }
        let mut outstanding = BTreeMap::new();
        for (w, upto) in self.writers_of(page) {
            let fl = pv.get(w);
            if w != me && upto > fl {
                outstanding.insert(w, upto);
                out.push(Msg {
                    src: me,
                    dst: w,
                    payload: Payload::DiffReq {
                        page,
                        requester: me,
                        floor: fl,
                        upto,
                    },
                });
            }
        }
        self.stats.diff_fetches += outstanding.len() as u64;
        self.pv.insert(page, pv);
        if outstanding.is_empty() {
            self.blocked = None;
            return self.finish_diff_merge(page, want_write, buffered, committed, work);
        }
        self.blocked = Some(Blocked::Fault {
            page,
            want_write,
            awaiting_page: false,
            outstanding,
            buffered,
            committed,
        });
        None
    }

    /// Apply buffered diffs in a linear extension of their causal order,
    /// commit the coverage they represent into the page version, and
    /// complete the fault. The component sum of a vector time is strictly
    /// monotone along happens-before, so sorting by (sum, writer, interval)
    /// is a valid and deterministic linearisation; concurrent diffs touch
    /// disjoint words under a correct locking discipline.
    fn finish_diff_merge(
        &mut self,
        page: PageId,
        want_write: bool,
        mut buffered: Vec<(ProcId, u32, VClock, Diff)>,
        committed: Vec<(ProcId, u32)>,
        work: &mut Work,
    ) -> Option<Wakeup> {
        buffered.sort_by_key(|(w, i, vc, _)| (vc.0.iter().map(|&c| c as u64).sum::<u64>(), *w, *i));
        let h = self.space.page(page);
        for (_, _, _, d) in &buffered {
            d.apply(&h.frame);
            work.diff_words += d.words() as u64;
        }
        let pv = self
            .pv
            .entry(page)
            .or_insert_with(|| VClock::zero(self.cfg.procs));
        for (w, upto) in committed {
            pv.raise(w, upto);
        }
        self.complete_fault(page, want_write, work)
    }

    fn apply_diff_resp(
        &mut self,
        page: PageId,
        writer: ProcId,
        intervals: Vec<u32>,
        vcs: Vec<VClock>,
        diffs: Vec<Diff>,
        work: &mut Work,
    ) -> Option<Wakeup> {
        let words = self.cfg.page_bytes / 8;
        if !diffs.iter().all(|d| d.fits(words)) {
            // A word past the page: a forged reply. Drop it whole; the
            // fault keeps waiting for the writer's real one.
            return None;
        }
        let (want_write, done) = match &mut self.blocked {
            Some(Blocked::Fault {
                page: p,
                want_write,
                awaiting_page: false,
                outstanding,
                buffered,
                committed,
            }) => {
                debug_assert_eq!(*p, page, "DiffResp for wrong page");
                let upto = outstanding
                    .remove(&writer)
                    // cni-lint: allow(panic-path) -- the outstanding set was built from this node's own DiffReq fan-out; a reply from outside it is an engine bug
                    .expect("DiffResp from unexpected writer");
                for ((i, vc), d) in intervals.into_iter().zip(vcs).zip(diffs) {
                    debug_assert!(i <= upto);
                    buffered.push((writer, i, vc, d));
                }
                // Do NOT raise pv yet: the diffs are only buffered. Raising
                // early would let a concurrent PageReq be served with a
                // version vector claiming updates the frame does not hold —
                // a lost update at the requester.
                committed.push((writer, upto));
                (*want_write, outstanding.is_empty())
            }
            // Not waiting for diffs: a duplicate or forged reply. Drop it.
            _ => return None,
        };
        if !done {
            return None;
        }
        let Some(Blocked::Fault {
            buffered,
            committed,
            ..
        }) = self.blocked.take()
        else {
            // cni-lint: allow(panic-path) -- the match above returned unless self.blocked is this exact Fault variant; the take() cannot observe anything else
            unreachable!("checked above");
        };
        self.finish_diff_merge(page, want_write, buffered, committed, work)
    }
}

/// Merge two diffs of the same page; `later` wins on overlapping words.
fn merge_diffs(earlier: Diff, later: Diff) -> Diff {
    if earlier.is_empty() {
        return later;
    }
    if later.is_empty() {
        return earlier;
    }
    let mut map: std::collections::BTreeMap<u32, u64> = earlier.entries.into_iter().collect();
    for (i, v) in later.entries {
        map.insert(i, v);
    }
    Diff {
        entries: map.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(procs: usize) -> DsmConfig {
        DsmConfig {
            procs,
            page_bytes: 2048,
            line_bytes: 32,
            tree_barrier: true,
            barrier_arity: 16,
        }
    }

    /// Processor `me` of `procs` on its own log, with pages `0..pages`
    /// registered round-robin.
    fn node_with_pages(me: u32, procs: usize, pages: u32) -> DsmNode {
        let mut node = DsmNode::new(
            ProcId(me),
            config(procs),
            Rc::new(NodeSpace::new(2048, 32)),
            Rc::new(NoticeLog::default()),
        );
        for p in 0..pages {
            node.set_home(PageId(p), ProcId(p % procs as u32));
        }
        node
    }

    fn notice(writer: u32, interval: u32, page: u32) -> WriteNotice {
        WriteNotice {
            writer: ProcId(writer),
            interval,
            page: PageId(page),
        }
    }

    /// A grant of `lock` from processor 1 to processor 0, which must be
    /// waiting for it.
    fn grant(lock: u32, vc: VClock, notices: Vec<WriteNotice>) -> Msg {
        Msg {
            src: ProcId(1),
            dst: ProcId(0),
            payload: Payload::AcquireGrant {
                lock: LockId(lock),
                vc,
                notices,
                then_serve: vec![],
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Page knowledge read through the shared log answers every query
        /// exactly as a dense clock per page would, built from the writes
        /// the node's clock covers, and walks writers in ascending order.
        /// Each op publishes a write of `page` by `w`, in a new interval or
        /// in `w`'s last one, then lets the node's clock see `w`'s
        /// intervals up to `lag` behind its newest. A write of a page past
        /// the 8 registered ones is not published.
        fn page_knowledge_matches_a_dense_clock_per_page(
            ops in proptest::collection::vec((0u32..10, 0u32..64, any::<bool>(), 0u32..3), 1..200)
        ) {
            let mut node = node_with_pages(0, 64, 8);
            let mut newest = vec![0u32; 64];
            let mut published: Vec<(ProcId, u32, PageId)> = Vec::new();
            for (page, w, fresh, lag) in ops {
                let (page, w) = (PageId(page), ProcId(w));
                let i = &mut newest[w.0 as usize];
                if fresh || *i == 0 {
                    *i += 1;
                }
                let write = (w, *i, page);
                if !published.contains(&write) {
                    node.log.publish_write(w, *i, page);
                    if page.0 < 8 {
                        published.push(write);
                    }
                }
                node.vc.raise(w, i.saturating_sub(lag));
                let mut model = vec![VClock::zero(64); 10];
                for &(w, i, p) in &published {
                    if i <= node.vc.get(w) {
                        model[p.0 as usize].raise(w, i);
                    }
                }
                prop_assert_eq!(node.log.segment_pages(), 8);
                for (pg, clock) in model.iter().enumerate() {
                    let page = PageId(pg as u32);
                    for w in (0..64).map(ProcId) {
                        prop_assert_eq!(node.known(page, w), clock.get(w));
                    }
                    let dense: Vec<(ProcId, u32)> = (0..64)
                        .map(ProcId)
                        .map(|w| (w, clock.get(w)))
                        .filter(|&(_, i)| i > 0)
                        .collect();
                    prop_assert_eq!(node.writers_of(page), dense);
                }
            }
        }
    }

    #[test]
    fn writers_come_back_in_ascending_id_order() {
        let mut node = node_with_pages(0, 64, 2);
        let page = PageId(1);
        for (w, i) in [(9, 2), (9, 3), (4, 1), (63, 7), (4, 5)] {
            node.log.publish_write(ProcId(w), i, page);
        }
        assert!(node.writers_of(page).is_empty(), "the clock covers none");
        for (w, i) in [(9, 3), (4, 5), (63, 7)] {
            node.vc.set(ProcId(w), i);
        }
        assert_eq!(
            node.writers_of(page),
            [(ProcId(4), 5), (ProcId(9), 3), (ProcId(63), 7)],
            "ascending by writer"
        );
        node.vc = VClock::zero(64);
        node.vc.set(ProcId(4), 4);
        node.vc.set(ProcId(9), 2);
        assert_eq!(node.known(page, ProcId(9)), 2);
        assert_eq!(
            node.writers_of(page),
            [(ProcId(4), 1), (ProcId(9), 2)],
            "each writer's last write the clock covers"
        );
        assert!(node.writers_of(PageId(0)).is_empty());
    }

    #[test]
    fn set_home_sizes_the_tables_and_keeps_round_robin_gaps() {
        let mut node = node_with_pages(0, 4, 0);
        let mut peer = DsmNode::new(
            ProcId(1),
            config(4),
            Rc::new(NodeSpace::new(2048, 32)),
            Rc::clone(&node.log),
        );
        assert_eq!(node.page_home(PageId(6)), ProcId(2));
        node.set_home(PageId(5), ProcId(0));
        assert_eq!((node.homes.len(), node.log.segment_pages()), (6, 6));
        let homes: Vec<_> = (0..7).map(|p| node.page_home(PageId(p)).0).collect();
        assert_eq!(homes, [0, 1, 2, 3, 0, 0, 2]);
        node.set_home(PageId(2), ProcId(3));
        assert_eq!(node.page_home(PageId(2)), ProcId(3));
        assert_eq!(node.homes.len(), 6, "re-registering a page does not grow");
        peer.set_home(PageId(3), ProcId(3));
        assert_eq!((peer.homes.len(), peer.log.segment_pages()), (4, 6));
    }

    /// Page ids past the allocated segment reach a node in notices,
    /// grants, releases and faults; none of them may panic or size a table.
    #[test]
    fn a_page_past_the_segment_grows_no_table() {
        let mut node = node_with_pages(0, 64, 2);
        node.on_acquire(LockId(1));
        node.on_message(grant(
            1,
            VClock::zero(64),
            vec![notice(1, 1, 2), notice(1, 1, u32::MAX)],
        ));
        node.on_message(Msg {
            src: ProcId(1),
            dst: ProcId(0),
            payload: Payload::BarrierRelease {
                epoch: 0,
                vc: VClock::zero(64),
                notices: vec![notice(1, 1, 1000)].into(),
            },
        });
        assert_eq!((node.homes.len(), node.log.segment_pages()), (2, 2));
        assert_eq!(node.stats().notices_in, 0, "skipped, not integrated");

        // A program that faults on, writes and publishes a page past the
        // segment beside one inside it: the page's round-robin home serves
        // a zero frame, and the log takes only the write inside, so no
        // barrier and no grant carries the other.
        let mut c = crate::DsmCluster::new(DsmConfig {
            tree_barrier: false,
            ..config(4)
        });
        let base = c.alloc(2 * 2048);
        let addr = crate::VAddr::of_page(PageId(1000), 2048);
        assert_eq!(c.read_u64(ProcId(1), addr), 0);
        c.acquire(ProcId(1), LockId(1));
        c.write_u64(ProcId(1), addr, 5);
        c.write_u64(ProcId(1), base, 6);
        c.release(ProcId(1), LockId(1));
        c.acquire(ProcId(2), LockId(1));
        assert_eq!(c.read_u64(ProcId(2), base), 6);
        c.release(ProcId(2), LockId(1));
        c.barrier_all();
        assert_eq!(c.read_u64(ProcId(2), addr), 0);
        for p in (0..4).map(ProcId) {
            let node = c.node(p);
            assert_eq!((node.homes.len(), node.log.segment_pages()), (2, 2));
            assert_eq!(
                node.notices_since(&VClock::zero(4)),
                [notice(1, 1, 0)],
                "the notices any grant of {p:?} can carry"
            );
        }
    }

    /// Forged messages naming writer 9 and carrying clocks of another
    /// width reach a 4-processor node: no panic, no notice integrated, the
    /// shared log unchanged, and the clock keeps its width.
    #[test]
    fn a_writer_outside_the_cluster_and_a_clock_of_another_width_are_ignored() {
        let mut node = node_with_pages(0, 4, 2);
        node.log.publish_write(ProcId(2), 1, PageId(1));
        let before = (*node.log).clone();
        let outsider = vec![notice(9, 3, 1)];
        let wide = VClock(vec![1, 2, 3, 4, 5]);
        node.on_acquire(LockId(1));
        node.on_message(grant(1, wide.clone(), outsider.clone()));
        node.on_message(Msg {
            src: ProcId(1),
            dst: ProcId(0),
            payload: Payload::BarrierRelease {
                epoch: 0,
                vc: wide,
                notices: outsider.into(),
            },
        });
        // A lock request with a narrower clock, granted at once by this
        // node (lock 4's manager): the grant reads every writer's floor.
        let res = node.on_message(Msg {
            src: ProcId(2),
            dst: ProcId(0),
            payload: Payload::AcquireReq {
                lock: LockId(4),
                requester: ProcId(2),
                vc: VClock::zero(3),
            },
        });
        assert!(matches!(
            res.out.last().map(|m| &m.payload),
            Some(Payload::AcquireGrant { notices, .. }) if notices[..] == [notice(2, 1, 1)]
        ));
        assert_eq!(*node.log, before);
        assert_eq!(node.stats().notices_in, 0, "skipped, not integrated");
        // The node's own component is its own to advance: the forged 1
        // there is not merged.
        assert_eq!(node.vc, VClock(vec![0, 2, 3, 4]));
    }

    /// A real message's clock covers every notice it carries; a forged one
    /// may carry a notice past it. Such a notice is counted and checked
    /// against the local copy like any other, but adds no knowledge.
    #[test]
    fn a_notice_the_messages_clock_does_not_cover_adds_nothing() {
        let mut node = node_with_pages(0, 4, 2);
        node.init_home_page(PageId(0));
        node.log.publish_write(ProcId(1), 1, PageId(0));
        let before = (*node.log).clone();
        node.on_acquire(LockId(1));
        node.on_message(grant(
            1,
            VClock(vec![0, 1, 0, 0]),
            vec![notice(1, 1, 0), notice(1, 2, 1)],
        ));
        assert_eq!(node.stats().notices_in, 2);
        assert_eq!(node.known(PageId(0), ProcId(1)), 1, "covered by the clock");
        assert_eq!(node.known(PageId(1), ProcId(1)), 0, "past the clock");
        assert!(node.writers_of(PageId(1)).is_empty());
        assert_eq!(*node.log, before);
        assert_eq!(
            node.space().page(PageId(0)).flags.state(),
            access::INVALID,
            "the covered notice invalidates the stale copy"
        );
    }

    /// A diff request's range comes from the wire. The reply walks only
    /// the diffs the node holds: a floor at `u32::MAX`, an inverted range
    /// and a huge `upto` each cost one range lookup, and a real request
    /// gets the same reply as before.
    #[test]
    fn a_forged_diff_request_is_served_from_the_held_diffs() {
        let mut node = node_with_pages(0, 4, 2);
        node.init_home_page(PageId(0));
        node.on_acquire(LockId(0));
        node.on_write_fault(PageId(0));
        let page = node.space().page(PageId(0));
        page.frame.store(3, 7);
        page.flags.mark_dirty(0);
        node.on_release(LockId(0));
        let mut reply = |floor, upto| {
            let res = node.on_message(Msg {
                src: ProcId(1),
                dst: ProcId(0),
                payload: Payload::DiffReq {
                    page: PageId(0),
                    requester: ProcId(1),
                    floor,
                    upto,
                },
            });
            match res.out.as_slice() {
                [Msg {
                    dst: ProcId(1),
                    payload:
                        Payload::DiffResp {
                            intervals, diffs, ..
                        },
                    ..
                }] => (
                    intervals.clone(),
                    diffs.iter().map(Diff::words).sum::<usize>(),
                ),
                other => panic!("expected one DiffResp, got {other:?}"),
            }
        };
        assert_eq!(reply(0, 1), (vec![1], 1), "a real request");
        assert_eq!(reply(0, 50_000_000), (vec![1], 1));
        assert_eq!(reply(u32::MAX, u32::MAX), (vec![], 0));
        assert_eq!(reply(u32::MAX, 1), (vec![], 0));
        assert_eq!(reply(1, 1), (vec![], 0));
        assert_eq!(reply(5, 3), (vec![], 0));
    }

    /// Processor 0 of 4 with concurrent writers of page 1, both covered
    /// by its clock: a fault on page 1 fetches the page from writer 3,
    /// whose copy lacks writer 2's interval, so it then needs writer 2's
    /// diff.
    fn node_with_concurrent_writers() -> DsmNode {
        let mut node = node_with_pages(0, 4, 2);
        node.log.publish_write(ProcId(2), 1, PageId(1));
        node.log.publish_write(ProcId(3), 2, PageId(1));
        node.vc = VClock(vec![0, 0, 1, 2]);
        node
    }

    /// Writer 3's copy of page 1.
    fn page_resp(data: Vec<u64>) -> Msg {
        Msg {
            src: ProcId(3),
            dst: ProcId(0),
            payload: Payload::PageResp {
                page: PageId(1),
                version: VClock(vec![0, 0, 0, 2]),
                data,
            },
        }
    }

    /// A full copy of page 1 whose word 0 is `word0`.
    fn copy(word0: u64) -> Vec<u64> {
        let mut data = vec![0u64; 256];
        data[0] = word0;
        data
    }

    /// Writer 2's diff of page 1 for its interval 1.
    fn diff_resp(entries: Vec<(u32, u64)>) -> Msg {
        Msg {
            src: ProcId(2),
            dst: ProcId(0),
            payload: Payload::DiffResp {
                page: PageId(1),
                writer: ProcId(2),
                intervals: vec![1],
                vcs: vec![VClock(vec![0, 0, 1, 0])],
                diffs: vec![Diff { entries }],
            },
        }
    }

    /// Deliver `msg`, which the node must drop: no message out, no
    /// wake-up, and the fault state, page versions and clock as before.
    fn assert_dropped(node: &mut DsmNode, msg: Msg) {
        let before = format!("{:?} {:?} {:?}", node.blocked, node.pv, node.vc);
        let res = node.on_message(msg);
        assert!(res.out.is_empty() && res.wakeup.is_none());
        let after = format!("{:?} {:?} {:?}", node.blocked, node.pv, node.vc);
        assert_eq!(before, after);
    }

    /// A page or diff reply comes from the wire. One that does not fit
    /// the page (a copy of the wrong length, a diff entry past the page's
    /// last word) is dropped whole and the fault keeps waiting, so the
    /// real replies that follow apply exactly as they would alone.
    #[test]
    fn forged_page_and_diff_replies_are_dropped() {
        let mut node = node_with_concurrent_writers();
        let req = node.on_read_fault(PageId(1));
        assert!(matches!(
            req.out.as_slice(),
            [Msg {
                dst: ProcId(3),
                payload: Payload::PageReq { .. },
                ..
            }]
        ));
        for forged in [vec![9; 10], vec![9; 300]] {
            let res = node.on_message(page_resp(forged));
            assert!(res.out.is_empty() && res.wakeup.is_none());
        }
        let res = node.on_message(page_resp(copy(42)));
        assert!(matches!(
            res.out.as_slice(),
            [Msg {
                dst: ProcId(2),
                payload: Payload::DiffReq {
                    floor: 0,
                    upto: 1,
                    ..
                },
                ..
            }]
        ));
        assert!(res.wakeup.is_none(), "waiting for writer 2's diff");
        let res = node.on_message(diff_resp(vec![(3, 7), (10_000, 5)]));
        assert!(res.out.is_empty() && res.wakeup.is_none());
        let res = node.on_message(diff_resp(vec![(3, 7), (255, 8)]));
        assert_eq!(res.wakeup, Some(Wakeup::FaultDone(PageId(1))));
        let frame = &node.space().page(PageId(1)).frame;
        assert_eq!((frame.load(0), frame.load(3), frame.load(255)), (42, 7, 8));
        assert_eq!(node.pv[&PageId(1)], VClock(vec![0, 0, 1, 2]));
    }

    /// A page reply reaches a node that is not waiting for one: an idle
    /// node, or one already waiting for diffs (a duplicate). The node
    /// drops it, its frame untouched, and the real diff that follows
    /// completes the fault as it would alone.
    #[test]
    fn a_page_reply_the_node_is_not_waiting_for_is_dropped() {
        let mut node = node_with_concurrent_writers();
        assert_dropped(&mut node, page_resp(copy(5)));
        assert!(node.space().try_page(PageId(1)).is_none(), "no frame made");
        node.on_read_fault(PageId(1));
        let res = node.on_message(page_resp(copy(42)));
        assert_eq!(res.out.len(), 1, "one DiffReq, to writer 2");
        assert_dropped(&mut node, page_resp(copy(5)));
        let res = node.on_message(diff_resp(vec![(3, 7)]));
        assert_eq!(res.wakeup, Some(Wakeup::FaultDone(PageId(1))));
        assert_dropped(&mut node, page_resp(copy(5)));
        let frame = &node.space().page(PageId(1)).frame;
        assert_eq!((frame.load(0), frame.load(3)), (42, 7));
    }

    /// A diff reply reaches a node that is not waiting for diffs: an idle
    /// node, or one still waiting for the page. The node drops it, and
    /// the page and diff that follow complete the fault as they would
    /// alone.
    #[test]
    fn a_diff_reply_the_node_is_not_waiting_for_is_dropped() {
        let mut node = node_with_concurrent_writers();
        assert_dropped(&mut node, diff_resp(vec![(3, 5)]));
        node.on_read_fault(PageId(1));
        assert_dropped(&mut node, diff_resp(vec![(3, 5)]));
        node.on_message(page_resp(copy(42)));
        let res = node.on_message(diff_resp(vec![(3, 7)]));
        assert_eq!(res.wakeup, Some(Wakeup::FaultDone(PageId(1))));
        assert_dropped(&mut node, diff_resp(vec![(3, 5)]));
        let frame = &node.space().page(PageId(1)).frame;
        assert_eq!((frame.load(0), frame.load(3)), (42, 7));
        assert_eq!(node.pv[&PageId(1)], VClock(vec![0, 0, 1, 2]));
    }

    /// Only a node advances its own clock component. A grant or barrier
    /// release whose clock carries `u32::MAX` there (no real message's
    /// does) leaves it alone, so the next interval is numbered on.
    #[test]
    fn a_forged_clock_leaves_the_receivers_own_component_alone() {
        let mut node = node_with_pages(0, 4, 2);
        node.init_home_page(PageId(0));
        let write_and_release = |node: &mut DsmNode, value| {
            node.on_acquire(LockId(0));
            node.on_write_fault(PageId(0));
            let page = node.space().page(PageId(0));
            page.frame.store(3, value);
            page.flags.mark_dirty(0);
            node.on_release(LockId(0));
        };
        write_and_release(&mut node, 1);
        assert_eq!(node.vc.get(ProcId(0)), 1);
        node.on_acquire(LockId(1));
        node.on_message(grant(1, VClock(vec![u32::MAX, 2, 0, 0]), vec![]));
        assert_eq!(node.vc, VClock(vec![1, 2, 0, 0]));
        write_and_release(&mut node, 2);
        assert_eq!(node.vc.get(ProcId(0)), 2);
        node.on_message(Msg {
            src: ProcId(1),
            dst: ProcId(0),
            payload: Payload::BarrierRelease {
                epoch: 0,
                vc: VClock(vec![u32::MAX, 2, 5, 0]),
                notices: vec![].into(),
            },
        });
        assert_eq!(node.vc, VClock(vec![2, 2, 5, 0]));
        write_and_release(&mut node, 3);
        assert_eq!(node.vc.get(ProcId(0)), 3);
        assert_eq!(node.stats().intervals, 3);
    }

    #[test]
    fn merge_diffs_later_wins() {
        let a = Diff {
            entries: vec![(1, 10), (3, 30)],
        };
        let b = Diff {
            entries: vec![(3, 99), (5, 50)],
        };
        let m = merge_diffs(a, b);
        assert_eq!(m.entries, vec![(1, 10), (3, 99), (5, 50)]);
    }

    #[test]
    fn merge_diffs_identity() {
        let a = Diff {
            entries: vec![(1, 10)],
        };
        assert_eq!(merge_diffs(Diff::default(), a.clone()), a);
        assert_eq!(merge_diffs(a.clone(), Diff::default()), a);
    }
}
