//! Deterministic event queue.
//!
//! A hand-rolled 4-ary min-heap keyed by `(time, sequence)`: timestamp
//! ties break by insertion sequence number, making event delivery a pure
//! function of the insertion order. Determinism is what lets the whole
//! reproduction assert bit-identical results across runs (see the
//! integration tests).
//!
//! Why 4-ary instead of `std::collections::BinaryHeap`? The simulation
//! spends a measurable slice of every run churning this structure
//! (`crates/bench/benches/hotpath.rs` tracks it). A 4-ary layout halves the tree
//! depth, so the pop-side sift-down — the expensive direction — touches
//! half as many levels, and all four children share a cache line pair.
//! The total order on `(at, seq)` is strict (sequence numbers are unique),
//! so *any* correct heap pops the identical stream; the differential
//! property test below pins the new heap against the previous
//! `BinaryHeap`-based implementation (`RefQueue`, kept under
//! `#[cfg(test)]`) event for event.
//!
//! On top of the plain push/pop the queue offers the hot-path entry
//! points the engine uses:
//!
//! * [`EventQueue::peek`] — O(1) access to the head event (the root).
//! * [`EventQueue::schedule_batch_at`] — bulk insert of an event train at
//!   one timestamp (e.g. the time-zero processor resumes); sequence
//!   numbers are assigned in iteration order, exactly as repeated
//!   [`EventQueue::schedule_at`] calls would.

use crate::time::SimTime;
use cni_trace::{TraceEvent, TraceSink, NO_NODE};

/// Heap arity. Four keeps the tree shallow (log₄ n levels) while the
/// children of a node stay adjacent in memory.
const ARITY: usize = 4;

/// Heap entry. The ordering key packs `(at, seq)` into one `u128`
/// (`at.as_ps() << 64 | seq`), computed once at insert: a single integer
/// compare per heap step instead of a two-field lexicographic compare
/// with a branch between the fields. The packing is order-preserving, so
/// the induced total order is exactly `(at, seq)`.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_ps((self.key >> 64) as u64)
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.key as u64
    }
}

#[inline]
fn pack_key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_ps()) << 64) | u128::from(seq)
}

/// A priority queue of timed events with deterministic tie-breaking.
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    trace: TraceSink,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            trace: TraceSink::Disabled,
        }
    }

    /// Attach a trace sink: every pop advances the sink's virtual clock and
    /// records a `QueueDispatch` event. The default sink is disabled and
    /// costs one enum branch per pop.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// The current virtual time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the simulation has no time machine,
    /// and a retrograde event is always a modelling bug.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        // cni-lint: allow(panic-path) -- the DES's central sanity check, documented under # Panics: a retrograde event is always a modelling bug and must never be absorbed
        assert!(
            at >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: pack_key(at, seq),
            event,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Bulk-insert a train of events sharing one timestamp. Sequence
    /// numbers are assigned in iteration order, so the train pops in
    /// iteration order — byte-identical to calling
    /// [`EventQueue::schedule_at`] once per event, but each sift starts
    /// from a key already known to be the heap's largest sequence at that
    /// time, which keeps the per-event cost at the leaf level.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_batch_at(&mut self, at: SimTime, events: impl IntoIterator<Item = E>) {
        for event in events {
            self.schedule_at(at, event);
        }
    }

    /// Remove and return the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        let at = e.at();
        debug_assert!(at >= self.now);
        self.now = at;
        if self.trace.is_enabled() {
            self.trace.set_now(at.as_ps());
            self.trace.emit(
                NO_NODE,
                TraceEvent::QueueDispatch {
                    seq: e.seq(),
                    pending: self.heap.len() as u32,
                },
            );
        }
        Some((at, e.event))
    }

    /// The earliest event (time and payload) without removing it. O(1):
    /// the head is the heap root.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.first().map(|e| (e.at(), &e.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        // The moving entry's key is loop-invariant: read it once.
        let key = self.heap[i].key;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key < self.heap[parent].key {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let key = self.heap[i].key;
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            // Smallest key among the (up to four) children.
            let last = (first + ARITY).min(len);
            let mut min = first;
            let mut min_key = self.heap[first].key;
            for c in (first + 1)..last {
                let k = self.heap[c].key;
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < key {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

/// The previous `BinaryHeap`-backed implementation, kept verbatim as the
/// oracle for the differential property test: the 4-ary heap must dequeue
/// an identical `(time, seq, event)` stream for any schedule.
#[cfg(test)]
mod reference {
    use super::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    pub struct Entry<E> {
        pub at: SimTime,
        pub seq: u64,
        pub event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    pub struct RefQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> RefQueue<E> {
        pub fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule_at(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now, "event scheduled in the past");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| {
                self.now = e.at;
                (e.at, e.event)
            })
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefQueue;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(30), "c");
        q.schedule_at(SimTime::from_ns(10), "a");
        q.schedule_at(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), ());
        q.schedule_after(SimTime::from_ns(5), ()); // at t=5, before first pop now=0
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(5));
        assert_eq!(q.now(), SimTime::from_ns(5));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(10));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), ());
        q.pop();
        q.schedule_at(SimTime::from_ns(9), ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_ns(1), ());
        q.schedule_at(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_the_head_without_consuming() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        q.schedule_at(SimTime::from_ns(20), "later");
        q.schedule_at(SimTime::from_ns(10), "first");
        assert_eq!(q.peek(), Some((SimTime::from_ns(10), &"first")));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "first")));
        assert_eq!(q.peek(), Some((SimTime::from_ns(20), &"later")));
    }

    #[test]
    fn batch_insert_pops_in_iteration_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(3), 100);
        q.schedule_batch_at(SimTime::from_ns(3), 0..10);
        q.schedule_at(SimTime::from_ns(1), 200);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let mut expect = vec![200, 100];
        expect.extend(0..10);
        assert_eq!(order, expect);
    }

    #[test]
    fn max_sentinel_pops_last_and_ties_stay_stable() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, "end-a");
        q.schedule_at(SimTime::from_ns(1), "work");
        q.schedule_at(SimTime::MAX, "end-b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["work", "end-a", "end-b"]);
    }

    // ---- Differential tests against the old BinaryHeap implementation ----

    /// Drive both queues through one interleaved schedule. Op meanings:
    /// 0 => insert at now + delta, 1 => insert at now (a guaranteed tie),
    /// 2 => insert a `SimTime::MAX` sentinel, 3 => bulk-insert a 3-event
    /// train at now + delta, anything else => pop (advancing both clocks).
    fn drive(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r: RefQueue<u32> = RefQueue::new();
        let mut id = 0u32;
        for &(op, delta) in ops {
            match op {
                0 | 1 => {
                    let d = if op == 1 { 0 } else { delta };
                    // Saturating: schedules after a MAX pop stay at MAX.
                    let at = SimTime::from_ps(q.now().as_ps().saturating_add(d));
                    q.schedule_at(at, id);
                    r.schedule_at(at, id);
                    id += 1;
                }
                2 => {
                    q.schedule_at(SimTime::MAX, id);
                    r.schedule_at(SimTime::MAX, id);
                    id += 1;
                }
                3 => {
                    let at = SimTime::from_ps(q.now().as_ps().saturating_add(delta));
                    q.schedule_batch_at(at, id..id + 3);
                    for e in id..id + 3 {
                        r.schedule_at(at, e);
                    }
                    id += 3;
                }
                _ => {
                    prop_assert_eq!(q.pop(), r.pop());
                    prop_assert_eq!(q.now(), r.now());
                }
            }
            prop_assert_eq!(q.len(), r.len());
            prop_assert_eq!(q.peek_time(), r.peek_time());
        }
        // Drain both: the remaining streams must match to the last event.
        while let Some(got) = q.pop() {
            prop_assert_eq!(Some(got), r.pop());
        }
        prop_assert_eq!(r.pop(), None);
        Ok(())
    }

    proptest! {
        #[test]
        fn four_ary_heap_matches_reference_queue(
            ops in proptest::collection::vec((0u8..6, 0u64..2000), 0..400),
        ) {
            drive(&ops)?;
        }

        #[test]
        fn four_ary_heap_matches_reference_on_tie_storms(
            // Deltas drawn from {0, 1}: nearly everything collides, so the
            // sequence tie-break carries the whole ordering.
            ops in proptest::collection::vec((0u8..6, 0u64..2), 0..300),
        ) {
            drive(&ops)?;
        }
    }
}
