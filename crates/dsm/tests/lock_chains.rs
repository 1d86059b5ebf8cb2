//! Distributed lock-manager mechanics, driven message by message: the
//! probable-owner forwarding and the chained grant transfer
//! (`then_serve`) that keep queued requests moving when several
//! processors pile onto one lock.

use cni_dsm::{DsmConfig, DsmNode, LockId, Msg, NodeSpace, NoticeLog, ProcId, Wakeup};
use std::collections::VecDeque;
use std::rc::Rc;

struct Net {
    nodes: Vec<DsmNode>,
    queue: VecDeque<Msg>,
    wakeups: Vec<Vec<Wakeup>>,
}

impl Net {
    fn new(n: usize) -> Self {
        let cfg = DsmConfig {
            procs: n,
            page_bytes: 1024,
            line_bytes: 32,
            tree_barrier: false,
            barrier_arity: 2,
        };
        let log = Rc::new(NoticeLog::default());
        Net {
            nodes: (0..n)
                .map(|p| {
                    let space = Rc::new(NodeSpace::new(1024, 32));
                    DsmNode::new(ProcId(p as u32), cfg, space, Rc::clone(&log))
                })
                .collect(),
            queue: VecDeque::new(),
            wakeups: vec![Vec::new(); n],
        }
    }

    fn acquire(&mut self, p: usize, lock: LockId) -> bool {
        let res = self.nodes[p].on_acquire(lock);
        let done = res.wakeup.is_some();
        self.queue.extend(res.out);
        if let Some(w) = res.wakeup {
            self.wakeups[p].push(w);
        }
        done
    }

    fn release(&mut self, p: usize, lock: LockId) {
        let res = self.nodes[p].on_release(lock);
        assert!(res.wakeup.is_none());
        self.queue.extend(res.out);
    }

    /// Deliver exactly one message; returns false when idle.
    fn step(&mut self) -> bool {
        let Some(msg) = self.queue.pop_front() else {
            return false;
        };
        let dst = msg.dst.0 as usize;
        let res = self.nodes[dst].on_message(msg);
        self.queue.extend(res.out);
        if let Some(w) = res.wakeup {
            self.wakeups[dst].push(w);
        }
        true
    }

    fn pump(&mut self) {
        while self.step() {}
    }

    fn granted(&mut self, p: usize, lock: LockId) -> bool {
        self.wakeups[p]
            .drain(..)
            .any(|w| w == Wakeup::AcquireDone(lock))
    }
}

#[test]
fn manager_grants_its_own_token_immediately() {
    let mut net = Net::new(3);
    // Lock 1's manager is proc 1.
    assert!(net.acquire(1, LockId(1)), "manager self-acquire is local");
    net.release(1, LockId(1));
    net.pump();
    // And a re-acquire after release is still local (lazy release).
    assert!(net.acquire(1, LockId(1)));
}

#[test]
fn remote_acquire_routes_through_manager() {
    let mut net = Net::new(3);
    // Proc 0 asks for lock 1 (manager: proc 1, which holds the token).
    assert!(!net.acquire(0, LockId(1)), "remote acquire must block");
    net.pump();
    assert!(net.granted(0, LockId(1)));
}

#[test]
fn queued_requests_chain_through_grants() {
    let mut net = Net::new(4);
    let l = LockId(0); // manager: proc 0
    assert!(net.acquire(0, l));
    // Three remote requesters pile on while 0 holds the lock.
    assert!(!net.acquire(1, l));
    assert!(!net.acquire(2, l));
    assert!(!net.acquire(3, l));
    net.pump();
    // Nothing granted while the holder is in its critical section.
    assert!(!net.granted(1, l) && !net.granted(2, l) && !net.granted(3, l));

    // Release: the grant chain must serve every waiter as each one
    // releases in turn.
    net.release(0, l);
    net.pump();
    assert!(net.granted(1, l), "first waiter");
    net.release(1, l);
    net.pump();
    assert!(net.granted(2, l), "second waiter via then_serve chain");
    net.release(2, l);
    net.pump();
    assert!(net.granted(3, l), "third waiter");
    net.release(3, l);
    net.pump();

    // The token is now parked at proc 3; a fresh request still finds it.
    assert!(!net.acquire(0, l));
    net.pump();
    assert!(net.granted(0, l));
}

#[test]
fn locks_with_different_managers_are_independent() {
    let mut net = Net::new(4);
    for lock in 0..8u32 {
        let manager = (lock % 4) as usize;
        assert!(
            net.acquire(manager, LockId(lock)),
            "manager {manager} owns lock {lock} at start"
        );
    }
    // Every manager now holds one of its own locks; cross acquires queue.
    assert!(!net.acquire(0, LockId(1)));
    net.pump();
    assert!(!net.granted(0, LockId(1)), "proc 1 still inside its CS");
    net.release(1, LockId(1));
    net.pump();
    assert!(net.granted(0, LockId(1)));
}

#[test]
fn grant_carries_notices_exactly_once() {
    // Two transfers of the same lock: the second grant must not re-send
    // the notices the requester already has (vector-clock filtering).
    let mut net = Net::new(2);
    let l = LockId(0);
    assert!(net.acquire(0, l));
    net.release(0, l);

    assert!(!net.acquire(1, l));
    net.pump();
    assert!(net.granted(1, l));
    net.release(1, l);
    net.pump();

    // The stats show no duplicated notice processing for an idle lock
    // bounce (no writes happened at all).
    assert_eq!(net.nodes[0].stats().notices_in, 0);
    assert_eq!(net.nodes[1].stats().notices_in, 0);
}
