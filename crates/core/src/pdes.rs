//! The [`cni_sim::pdes`] driver for [`World`]: shards the engine per
//! node and runs it on the conservative lookahead-based parallel
//! executor (DESIGN.md §4.11).
//!
//! The split follows the world's own structure. Every event but the
//! metrics tick (which traced, hence serial, runs alone schedule) acts on
//! exactly one [`Node`], and its handler borrows only that node and the
//! read-only [`Env`]; the executor hands each lane its node by `&mut`.
//! Everything shared — the fabric's link registers, the fault injector,
//! global counters, the event queue itself — lives in [`Shared`], which
//! only the coordinating thread touches: handlers reach it through
//! [`Fx::Window`] as [`SendIntent`]s that [`Shared::commit_send`] applies
//! inside the executor's serial replay barrier, in exact serial dispatch
//! order. The lookahead is the fabric's
//! [`min_remote_latency`](cni_atm::AtmConfig::min_remote_latency): no
//! cross-node effect can land earlier than one switch traversal away, so
//! events inside a window can never affect each other across shards.
//!
//! Determinism is therefore structural, not accidental: the serial
//! engine and the replay barrier run the *same* handler and commit code
//! in the *same* order with the *same* sequence-number allocation, so
//! every RunReport, snapshot and histogram is byte-identical at any
//! worker count.

use crate::node::{Env, Fx, Node};
use crate::world::{Ev, SendIntent, Shared, World};
use cni_sim::pdes::{Driver, Executor, Outbox};
use cni_sim::SimTime;

/// The coordinator's half of a parallel run: the shared state the replay
/// barrier commits into.
struct Engine<'a> {
    env: &'a Env,
    shared: &'a mut Shared,
}

impl Driver for Engine<'_> {
    type Ev = Ev;
    type Intent = SendIntent;
    type Node = Node;
    type Env = Env;

    fn shard_of(&self, ev: &Ev) -> usize {
        // Metrics ticks exist only on traced runs, which never take the
        // parallel engine (`World::pdes_eligible`).
        ev.shard().expect("metrics ticks are serial-only")
    }

    fn pop_if_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64, Ev)> {
        self.shared.q.pop_if_before(horizon)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.shared.q.peek_time()
    }

    fn alloc_seq(&mut self) -> u64 {
        self.shared.q.alloc_seq()
    }

    fn insert_with_seq(&mut self, at: SimTime, seq: u64, ev: Ev) {
        self.shared.q.insert_with_seq(at, seq, ev)
    }

    fn advance_now(&mut self, t: SimTime) {
        self.shared.q.advance_now(t)
    }

    fn dispatch(env: &Env, node: &mut Node, t: SimTime, ev: Ev, out: &mut Outbox<Ev, SendIntent>) {
        node.dispatch(env, &mut Fx::Window(out), t, ev);
    }

    fn commit(&mut self, _t: SimTime, intent: SendIntent) {
        self.shared.commit_send(self.env, intent);
    }

    fn window_begin(&mut self, horizon: SimTime) {
        self.shared.horizon = horizon;
    }

    fn window_end(&mut self, dispatched: u64) {
        self.shared.events_dispatched += dispatched;
    }
}

impl World {
    /// Drive this run on the parallel executor. Entered only through
    /// [`World::run_loop`] when the run is eligible; produces the exact
    /// byte sequence the serial loop would.
    pub(crate) fn run_pdes(&mut self) {
        let cfg = &self.env.cfg;
        let exec = Executor::new(
            cfg.engine_workers.min(cfg.procs),
            cfg.atm.min_remote_latency(),
        );
        let mut engine = Engine {
            env: &self.env,
            shared: &mut self.shared,
        };
        exec.run(&mut engine, &self.env, &mut self.nodes);
    }
}
