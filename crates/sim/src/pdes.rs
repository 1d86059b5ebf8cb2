//! Conservative lookahead-based parallel discrete-event executor.
//!
//! The serial engine pops one global `(time, seq)`-ordered queue. This
//! module parallelizes *within* one run while keeping that total order —
//! and therefore every report, trace, and snapshot — byte-identical at
//! any worker count. The classic obstacle is that a parallel DES must
//! never dispatch an event before every event that could causally precede
//! it; the classic answer (Chandy–Misra–Bryant conservative execution) is
//! **lookahead**: if every cross-shard interaction takes at least `L`
//! simulated time to propagate, then all events in the half-open window
//! `[T0, T0 + L)` are causally independent *across* shards and may run
//! concurrently, shard by shard.
//!
//! The executor runs bulk-synchronous windows:
//!
//! 1. **Drain** — pop every event before the horizon `H = T0 + L` from
//!    the global queue into per-shard *lanes*, remembering each event's
//!    original sequence number.
//! 2. **Dispatch** — run the lanes concurrently on a worker pool. A lane
//!    is a miniature sub-simulation: dispatching an event may schedule
//!    further same-shard events inside the window (they join the lane's
//!    local heap as *provisional* entries) or emit cross-shard *intents*
//!    (captured in an [`Outbox`], never applied during the window — the
//!    lookahead contract guarantees their effects land at or past `H`).
//!    Every dispatch is logged.
//! 3. **Replay** — back on the coordinating thread, merge the per-lane
//!    logs into the exact order the serial engine would have used
//!    (ascending `(time, seq)`, with provisional entries resolved to the
//!    sequence numbers the serial engine would have allocated) and apply
//!    the side effects in that order: allocate sequence numbers, insert
//!    post-horizon events into the global queue, and commit cross-shard
//!    intents.
//!
//! The replay step is what makes the parallel engine *deterministic
//! rather than merely correct*: shared state (fabric link occupancy,
//! global counters, fault-injector draws) is only ever touched during
//! replay, in serial order, so it evolves bit-identically to the serial
//! engine no matter how the window's dispatches interleaved on the host.
//!
//! Shard isolation is enforced by types. Each shard's state is a
//! [`Driver::Node`] that the executor hands to its lane by `&mut`, and
//! [`Driver::dispatch`] is an associated function that sees only that
//! node plus the run's read-only [`Driver::Env`]. The driver itself —
//! queue, cross-shard state, global counters — is reachable only through
//! `&mut self` methods the coordinating thread calls, so a dispatch that
//! touched another shard's state or a shared counter would not compile.
//!
//! The worker pool mirrors cni-batch's work-stealing idiom (per-worker
//! `Mutex<VecDeque>` deques, dealt round-robin, stolen from the back) —
//! the dependency direction (cni-batch sits above the engine) prevents
//! importing it outright. Workers are long-lived for the whole run and
//! park on a condvar between windows; windows with at most one active
//! lane are dispatched inline on the coordinator without waking anyone,
//! which keeps the single-core and single-shard cases cheap.
//!
//! See DESIGN.md §4.11 for the full model and the determinism proof
//! sketch, and `crates/sim/tests/pdes_props.rs` for the differential
//! property test pinning the executor against the serial queue.

use crate::time::SimTime;
use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Side effects captured while dispatching one event inside a window.
///
/// The driver's `dispatch` routes every state change that would touch the
/// global queue or cross-shard state through here, **in call order** —
/// the order is replayed verbatim to allocate sequence numbers exactly as
/// the serial engine would have.
pub struct Outbox<E, I> {
    items: Vec<Out<E, I>>,
    now: SimTime,
}

enum Out<E, I> {
    /// A same-shard schedule: the serial engine would have called
    /// `schedule_at(at, ev)` here.
    Local { at: SimTime, ev: E },
    /// A cross-shard intent: applied during replay, in serial order.
    Send(I),
}

impl<E, I> Default for Outbox<E, I> {
    fn default() -> Self {
        Outbox {
            items: Vec::new(),
            now: SimTime::ZERO,
        }
    }
}

impl<E, I> Outbox<E, I> {
    /// Record a same-shard event schedule.
    ///
    /// # Panics
    /// Panics if `at` is before the event being dispatched — the same
    /// retrograde-event check
    /// [`EventQueue::schedule_at`](crate::queue::EventQueue::schedule_at)
    /// applies on the serial path.
    pub fn local(&mut self, at: SimTime, ev: E) {
        // cni-lint: allow(panic-path) -- the window-path twin of EventQueue::schedule_at's retrograde check: `at` is computed by the handler, not read off the wire, and an event in the past is a modelling bug
        assert!(
            at >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            at,
            self.now
        );
        self.items.push(Out::Local { at, ev });
    }

    /// Record a cross-shard intent for replay-time commit.
    pub fn send(&mut self, intent: I) {
        self.items.push(Out::Send(intent));
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A simulation the executor can drive.
///
/// The trait splits the engine into the parts the executor must own (the
/// global queue, via the `pop_if_before` / `alloc_seq` /
/// `insert_with_seq` / `advance_now` quartet), the part that runs
/// concurrently (`dispatch`, over one shard's [`Driver::Node`]), and the
/// parts that must stay serial (`commit`, the window hooks). The shards'
/// nodes are passed to [`Executor::run`] beside the driver, never through
/// it.
pub trait Driver {
    /// Event payload type of the global queue.
    type Ev: Send;
    /// Cross-shard side-effect description produced by `dispatch` and
    /// applied by `commit`.
    type Intent: Send;
    /// One shard's private state: the only mutable state a dispatch sees.
    type Node: Send;
    /// State every dispatch may read and none may write.
    type Env: Sync;

    /// The shard that owns `ev`: the index of the node its dispatch
    /// receives.
    fn shard_of(&self, ev: &Self::Ev) -> usize;

    /// Pop the earliest event strictly before `horizon` (with its
    /// sequence number), advancing the queue clock.
    fn pop_if_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64, Self::Ev)>;
    /// Timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Allocate the next global sequence number (replay only).
    fn alloc_seq(&mut self) -> u64;
    /// Insert an event under a pre-allocated sequence number (replay only).
    fn insert_with_seq(&mut self, at: SimTime, seq: u64, ev: Self::Ev);
    /// Advance the queue clock to `t` (replay only).
    fn advance_now(&mut self, t: SimTime);

    /// Dispatch one event at time `t` against its shard's `node`,
    /// capturing every queue schedule and cross-shard effect in `out`.
    /// Called from worker threads, concurrently for distinct nodes.
    fn dispatch(
        env: &Self::Env,
        node: &mut Self::Node,
        t: SimTime,
        ev: Self::Ev,
        out: &mut Outbox<Self::Ev, Self::Intent>,
    );
    /// Apply one cross-shard intent. Called serially, in exact serial
    /// dispatch order, with the queue clock at the emitting event's time.
    fn commit(&mut self, t: SimTime, intent: Self::Intent);

    /// A new window `[T0, horizon)` is starting (serial).
    fn window_begin(&mut self, horizon: SimTime) {
        let _ = horizon;
    }
    /// A window finished replaying `dispatched` events (serial). Drivers
    /// fold per-shard scratch tallies into global state here.
    fn window_end(&mut self, dispatched: u64) {
        let _ = dispatched;
    }
    /// Replay reached the dispatch of a `shard` event at `t` — i.e. the
    /// serial engine would be popping this event right now. Test drivers
    /// use this to capture the reconstructed total order.
    fn replayed(&mut self, shard: usize, t: SimTime) {
        let _ = (shard, t);
    }
}

/// Lane-heap entry: a real (pre-drained) or provisional (window-created)
/// event. Ordered by `(at, kind, n)` — real before provisional at equal
/// times, which matches the final sequence order because every real
/// event's sequence number predates the window while provisional numbers
/// are allocated after it starts.
struct LaneEntry<E> {
    at: SimTime,
    /// 0 = real (n is the global seq), 1 = provisional (n is the lane-local
    /// provisional id, assigned in creation order).
    kind: u8,
    n: u64,
    ev: E,
}

impl<E> LaneEntry<E> {
    #[inline]
    fn rank(&self) -> (SimTime, u8, u64) {
        (self.at, self.kind, self.n)
    }
}

impl<E> PartialEq for LaneEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl<E> Eq for LaneEntry<E> {}
impl<E> PartialOrd for LaneEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for LaneEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, lanes pop earliest-first.
        other.rank().cmp(&self.rank())
    }
}

/// One logged dispatch: where it sorts in the serial order, and the slice
/// of `LaneState::outs` it produced.
struct Rec {
    at: SimTime,
    /// 0 = real / 1 = provisional, same encoding as [`LaneEntry::kind`].
    kind: u8,
    n: u64,
    outs_start: u32,
    outs_len: u32,
}

/// Replay-side out record. `Local` entries for events that stayed inside
/// the window carry no payload (the lane already consumed them); entries
/// at or past the horizon defer the payload for queue insertion once the
/// real sequence number exists.
enum RecOut<E, I> {
    Local {
        prov: u32,
        at: SimTime,
        defer: Option<E>,
    },
    /// The `Option` is a consume-once slot: replay takes the intent out.
    Send(Option<I>),
}

/// Per-shard window state: the shard's node, the lane heap and the
/// dispatch log.
struct LaneState<'n, D: Driver> {
    node: &'n mut D::Node,
    heap: BinaryHeap<LaneEntry<D::Ev>>,
    next_prov: u32,
    log: Vec<Rec>,
    outs: Vec<RecOut<D::Ev, D::Intent>>,
    /// Provisional id → the sequence number replay assigned it.
    resolved: Vec<u64>,
    outbox: Outbox<D::Ev, D::Intent>,
}

impl<'n, D: Driver> LaneState<'n, D> {
    fn new(node: &'n mut D::Node) -> Self {
        LaneState {
            node,
            heap: BinaryHeap::new(),
            next_prov: 0,
            log: Vec::new(),
            outs: Vec::new(),
            resolved: Vec::new(),
            outbox: Outbox::default(),
        }
    }
}

/// One lane per shard, each behind the mutex that hands it between the
/// coordinator and the workers.
type Lanes<'n, D> = [Mutex<LaneState<'n, D>>];

/// Sequence-number sentinel for a provisional id not yet resolved.
const UNRESOLVED: u64 = u64::MAX;

/// Run one lane to the horizon: pop the lane heap in `(at, kind, n)`
/// order, dispatch each entry against the lane's node, and fold its
/// outbox into the log (window-local schedules re-enter the heap as
/// provisional entries; everything else is deferred to replay).
fn run_lane<D: Driver>(env: &D::Env, horizon: SimTime, lane: &mut LaneState<'_, D>) {
    while let Some(e) = lane.heap.pop() {
        debug_assert!(e.at < horizon);
        lane.outbox.now = e.at;
        D::dispatch(env, lane.node, e.at, e.ev, &mut lane.outbox);
        let outs_start = lane.outs.len() as u32;
        let mut items = std::mem::take(&mut lane.outbox.items);
        for out in items.drain(..) {
            match out {
                Out::Local { at, ev } => {
                    let prov = lane.next_prov;
                    lane.next_prov += 1;
                    if at < horizon {
                        // Stays inside the window: the lane dispatches it
                        // itself, after every real event at the same time.
                        lane.heap.push(LaneEntry {
                            at,
                            kind: 1,
                            n: u64::from(prov),
                            ev,
                        });
                        lane.outs.push(RecOut::Local {
                            prov,
                            at,
                            defer: None,
                        });
                    } else {
                        lane.outs.push(RecOut::Local {
                            prov,
                            at,
                            defer: Some(ev),
                        });
                    }
                }
                Out::Send(i) => lane.outs.push(RecOut::Send(Some(i))),
            }
        }
        lane.outbox.items = items; // keep the allocation across dispatches
        lane.log.push(Rec {
            at: e.at,
            kind: e.kind,
            n: e.n,
            outs_start,
            outs_len: lane.outs.len() as u32 - outs_start,
        });
    }
}

/// Coordinator/worker shared window control. `epoch` ticks once per
/// published window; `remaining` counts the workers still draining it.
struct Ctl {
    epoch: u64,
    horizon: SimTime,
    remaining: usize,
    shutdown: bool,
    panic: Option<Box<dyn Any + Send>>,
}

/// Claim the next lane: own deque front-first, then steal from the back
/// of the next non-empty victim — cni-batch's `Pool::map` discipline.
fn next_lane(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(s) = deques[w].lock().unwrap().pop_front() {
        return Some(s);
    }
    for k in 1..deques.len() {
        if let Some(s) = deques[(w + k) % deques.len()].lock().unwrap().pop_back() {
            return Some(s);
        }
    }
    None
}

/// The parallel discrete-event executor. See the module docs for the
/// window model; `workers == 1` runs the identical window algorithm
/// without spawning any threads.
pub struct Executor {
    workers: usize,
    lookahead: SimTime,
}

impl Executor {
    /// An executor advancing `workers` lanes concurrently under a
    /// cross-shard `lookahead` (the minimum simulated time any event
    /// dispatched on one shard needs to affect another).
    ///
    /// # Panics
    /// Panics if `workers` is zero or `lookahead` is zero — a zero
    /// lookahead admits no window and the executor cannot make progress.
    pub fn new(workers: usize, lookahead: SimTime) -> Self {
        assert!(workers >= 1, "executor needs at least one worker");
        assert!(
            lookahead > SimTime::ZERO,
            "conservative execution needs a positive lookahead"
        );
        Executor { workers, lookahead }
    }

    /// Drive `d` to completion (empty queue), window by window, with
    /// `nodes[s]` as shard `s`'s state and `env` shared read-only by every
    /// dispatch. The resulting dispatch order — and every serial side
    /// effect — is byte-identical to the serial engine's at any worker
    /// count.
    pub fn run<D: Driver>(&self, d: &mut D, env: &D::Env, nodes: &mut [D::Node]) {
        let lanes: Vec<Mutex<LaneState<'_, D>>> = nodes
            .iter_mut()
            .map(|node| Mutex::new(LaneState::new(node)))
            .collect();
        let mut active: Vec<usize> = Vec::with_capacity(lanes.len());
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..self.workers)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let ctl = Mutex::new(Ctl {
            epoch: 0,
            horizon: SimTime::ZERO,
            remaining: 0,
            shutdown: false,
            panic: None,
        });
        let work_cv = Condvar::new();
        let done_cv = Condvar::new();

        std::thread::scope(|scope| {
            // Whatever happens below — normal completion or a panic
            // unwinding the coordinator — the workers must be released, or
            // `scope` would join forever.
            let _release = ShutdownGuard {
                ctl: &ctl,
                work_cv: &work_cv,
            };

            for w in 1..self.workers {
                let (ctl, work_cv, done_cv) = (&ctl, &work_cv, &done_cv);
                let (lanes, deques) = (&lanes, &deques);
                scope.spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let horizon = {
                            let mut g = ctl.lock().unwrap();
                            loop {
                                if g.shutdown {
                                    return;
                                }
                                if g.epoch > seen {
                                    seen = g.epoch;
                                    break g.horizon;
                                }
                                g = work_cv.wait(g).unwrap();
                            }
                        };
                        while let Some(s) = next_lane(deques, w) {
                            let lane = &mut *lanes[s].lock().unwrap();
                            let r = catch_unwind(AssertUnwindSafe(|| run_lane(env, horizon, lane)));
                            if let Err(p) = r {
                                let mut g = ctl.lock().unwrap();
                                if g.panic.is_none() {
                                    g.panic = Some(p);
                                }
                            }
                        }
                        let mut g = ctl.lock().unwrap();
                        g.remaining -= 1;
                        if g.remaining == 0 {
                            done_cv.notify_one();
                        }
                    }
                });
            }

            while let Some(t0) = d.peek_time() {
                let h = self.open_window(d, t0, &lanes, &mut active);
                if active.len() <= 1 {
                    // Inline fast path: nothing to parallelize, don't wake
                    // the pool. The mutexes are uncontended here.
                    for &s in &active {
                        run_lane(env, h, &mut lanes[s].lock().unwrap());
                    }
                } else {
                    // Deal the active lanes round-robin; every claimant
                    // (workers and the coordinator alike) owns one deque.
                    for (i, &s) in active.iter().enumerate() {
                        deques[i % self.workers].lock().unwrap().push_back(s);
                    }
                    {
                        let mut g = ctl.lock().unwrap();
                        g.epoch += 1;
                        g.horizon = h;
                        g.remaining = self.workers - 1;
                    }
                    work_cv.notify_all();
                    // The coordinator claims lanes too (deque 0).
                    while let Some(s) = next_lane(&deques, 0) {
                        let lane = &mut *lanes[s].lock().unwrap();
                        let r = catch_unwind(AssertUnwindSafe(|| run_lane(env, h, lane)));
                        if let Err(p) = r {
                            let mut g = ctl.lock().unwrap();
                            if g.panic.is_none() {
                                g.panic = Some(p);
                            }
                        }
                    }
                    let mut g = ctl.lock().unwrap();
                    while g.remaining > 0 {
                        g = done_cv.wait(g).unwrap();
                    }
                    if let Some(p) = g.panic.take() {
                        drop(g);
                        resume_unwind(p);
                    }
                }
                self.replay_window(d, &lanes, &active);
            }
        });
    }

    /// Open the window at `t0`: compute the horizon, drain every eligible
    /// event into its lane, and rebuild the active-lane list. Returns the
    /// horizon.
    fn open_window<D: Driver>(
        &self,
        d: &mut D,
        t0: SimTime,
        lanes: &Lanes<'_, D>,
        active: &mut Vec<usize>,
    ) -> SimTime {
        let h = SimTime::from_ps(t0.as_ps().saturating_add(self.lookahead.as_ps()));
        assert!(
            h > t0,
            "event horizon saturated: the parallel engine does not support \
             events at SimTime::MAX"
        );
        d.window_begin(h);
        active.clear();
        while let Some((at, seq, ev)) = d.pop_if_before(h) {
            let s = d.shard_of(&ev);
            let lane = &mut *lanes[s].lock().unwrap();
            if lane.heap.is_empty() && lane.log.is_empty() {
                active.push(s);
            }
            lane.heap.push(LaneEntry {
                at,
                kind: 0,
                n: seq,
                ev,
            });
        }
        active.sort_unstable();
        h
    }

    /// Replay the window's per-lane logs in global serial order and apply
    /// every deferred side effect. Serial, coordinator only.
    fn replay_window<D: Driver>(&self, d: &mut D, lanes: &Lanes<'_, D>, active: &[usize]) {
        let mut dispatched = 0u64;
        // Merge the lane logs by resolved key. A lane's log is already in
        // its own serial order, so a heap of lane fronts suffices; a
        // front's key is always resolvable because a provisional event's
        // creating record precedes it in the same lane.
        let mut fronts: BinaryHeap<std::cmp::Reverse<(u128, usize)>> = BinaryHeap::new();
        let mut cursors = vec![0usize; active.len()];
        for (li, &s) in active.iter().enumerate() {
            let lane = &mut *lanes[s].lock().unwrap();
            lane.resolved.clear();
            lane.resolved.resize(lane.next_prov as usize, UNRESOLVED);
            if !lane.log.is_empty() {
                let key = front_key(lane, 0);
                fronts.push(std::cmp::Reverse((key, li)));
            }
        }
        while let Some(std::cmp::Reverse((_, li))) = fronts.pop() {
            let s = active[li];
            let i = cursors[li];
            cursors[li] += 1;
            let lane = &mut *lanes[s].lock().unwrap();
            let rec = &lane.log[i];
            let (rec_at, outs_start, outs_len) =
                (rec.at, rec.outs_start as usize, rec.outs_len as usize);
            d.advance_now(rec_at);
            d.replayed(s, rec_at);
            dispatched += 1;
            let (outs, resolved) = (&mut lane.outs, &mut lane.resolved);
            for out in &mut outs[outs_start..outs_start + outs_len] {
                match out {
                    RecOut::Local { prov, at, defer } => {
                        let seq = d.alloc_seq();
                        resolved[*prov as usize] = seq;
                        if let Some(ev) = defer.take() {
                            d.insert_with_seq(*at, seq, ev);
                        }
                    }
                    RecOut::Send(slot) => {
                        let intent = slot.take().expect("intent committed twice");
                        d.commit(rec_at, intent);
                    }
                }
            }
            if cursors[li] < lane.log.len() {
                let key = front_key(lane, cursors[li]);
                fronts.push(std::cmp::Reverse((key, li)));
            }
        }
        for &s in active {
            let lane = &mut *lanes[s].lock().unwrap();
            debug_assert!(lane.heap.is_empty());
            lane.log.clear();
            lane.outs.clear();
            lane.next_prov = 0;
        }
        d.window_end(dispatched);
    }
}

/// The resolved `(time, seq)` key of a lane-log record, packed exactly
/// like the global queue's heap key so the merge reproduces its order.
fn front_key<D: Driver>(lane: &LaneState<'_, D>, i: usize) -> u128 {
    let rec = &lane.log[i];
    let seq = if rec.kind == 0 {
        rec.n
    } else {
        let s = lane.resolved[rec.n as usize];
        debug_assert_ne!(
            s, UNRESOLVED,
            "provisional event replayed before its parent"
        );
        s
    };
    (u128::from(rec.at.as_ps()) << 64) | u128::from(seq)
}

/// Releases parked workers when the coordinator leaves its scope —
/// normally or by unwinding — so `std::thread::scope` can join them.
struct ShutdownGuard<'a> {
    ctl: &'a Mutex<Ctl>,
    work_cv: &'a Condvar,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        // A lock poisoned by a panicking worker must not stop the
        // release, or the scope join would deadlock mid-unwind.
        let mut g = self
            .ctl
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.shutdown = true;
        drop(g);
        self.work_cv.notify_all();
    }
}

/// Reference serial engine used by the differential tests: pops the
/// global queue one event at a time, dispatching through the same
/// [`Driver`] interface (with every outbox effect applied immediately, in
/// call order — the semantics the parallel engine must reproduce).
///
/// This is **not** the production serial path (the engine's own event
/// loop is), but it is the executable specification the property tests
/// compare the executor against.
pub fn run_serial<D: Driver>(d: &mut D, env: &D::Env, nodes: &mut [D::Node]) {
    let mut out = Outbox::default();
    while let Some((at, _seq, ev)) = d.pop_if_before(SimTime::MAX) {
        d.advance_now(at);
        let shard = d.shard_of(&ev);
        d.replayed(shard, at);
        out.now = at;
        D::dispatch(env, &mut nodes[shard], at, ev, &mut out);
        let items = std::mem::take(&mut out.items);
        for o in items {
            match o {
                Out::Local { at, ev } => {
                    let seq = d.alloc_seq();
                    d.insert_with_seq(at, seq, ev);
                }
                Out::Send(i) => d.commit(at, i),
            }
        }
    }
}
