//! Differential property tests for the parallel executor
//! (`cni_sim::pdes`): arbitrary event schedules — random times, fan-out
//! across shards, cross-shard sends landing at and past the lookahead
//! horizon, ties on `(time, seq)` — must dispatch in **exactly** the
//! serial engine's total order, allocate the same sequence numbers, and
//! commit cross-shard intents at the same points. The same discipline as
//! the PR 5 `RefQueue` differential test: a dumb executable specification
//! ([`run_serial`]) against the real implementation, driven by proptest.

use cni_sim::pdes::{run_serial, Driver, Executor, Outbox};
use cni_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// Cross-shard lookahead for every test, in picoseconds.
const L: u64 = 1_000;

/// One toy event: a generation-bounded self-replicating workload item.
#[derive(Clone, Debug)]
struct ToyEv {
    shard: usize,
    id: u64,
    gen: u8,
}

/// A cross-shard message: schedule `ToyEv { shard: dst, id, gen }` at
/// `at` (always `>= horizon` for a contract-honouring driver).
#[derive(Debug)]
struct ToyIntent {
    dst: usize,
    at: SimTime,
    id: u64,
    gen: u8,
}

/// splitmix64 finalizer: the deterministic "work" a dispatch performs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The toy driver. Per-shard state (the executor's nodes) is a hash
/// accumulator chained over the shard's own dispatch history — any
/// reordering *within* a shard changes the final hashes, any reordering
/// *across* shards changes the `order`/`commits` logs, and any
/// sequence-allocation drift changes `q.next_seq()`; the test compares
/// all of them against serial.
struct Toy {
    q: EventQueue<ToyEv>,
    /// The reconstructed serial total order, from the `replayed` hook.
    order: Vec<(u64, usize)>,
    /// Commit order of cross-shard intents.
    commits: Vec<(u64, usize, u64)>,
    /// Horizon of the open window (the conservative-lookahead contract
    /// check in `commit`); `None` outside the parallel engine.
    horizon: Option<SimTime>,
}

/// What every dispatch reads.
struct ToyEnv {
    shards: usize,
    /// When true, `dispatch` emits sends *below* the horizon — a
    /// deliberate contract violation for the detection test.
    violate_lookahead: bool,
}

impl Toy {
    fn new() -> Self {
        Toy {
            q: EventQueue::new(),
            order: Vec::new(),
            commits: Vec::new(),
            horizon: None,
        }
    }

    /// Everything observable about a finished run.
    fn fingerprint(self, hashes: Vec<u64>) -> Fingerprint {
        (self.order, self.commits, hashes, self.q.next_seq())
    }
}

impl Driver for Toy {
    type Ev = ToyEv;
    type Intent = ToyIntent;
    type Node = u64;
    type Env = ToyEnv;

    fn shard_of(&self, ev: &ToyEv) -> usize {
        ev.shard
    }
    fn pop_if_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64, ToyEv)> {
        self.q.pop_if_before(horizon)
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }
    fn alloc_seq(&mut self) -> u64 {
        self.q.alloc_seq()
    }
    fn insert_with_seq(&mut self, at: SimTime, seq: u64, ev: ToyEv) {
        self.q.insert_with_seq(at, seq, ev)
    }
    fn advance_now(&mut self, t: SimTime) {
        self.q.advance_now(t)
    }

    fn dispatch(
        env: &ToyEnv,
        node: &mut u64,
        t: SimTime,
        ev: ToyEv,
        out: &mut Outbox<ToyEv, ToyIntent>,
    ) {
        *node = mix(*node ^ ev.id ^ t.as_ps());
        let h = *node;
        if ev.gen == 0 {
            return;
        }
        // Same-shard child at a delta that straddles the horizon: 0 (a
        // `(time, seq)` tie with the parent's window), inside the window,
        // exactly at the horizon, and past it.
        let deltas = [0, L / 2, L, L + 7];
        if h & 1 != 0 {
            let d = deltas[(h >> 1) as usize % 4];
            out.local(
                SimTime::from_ps(t.as_ps() + d),
                ToyEv {
                    shard: ev.shard,
                    id: mix(h ^ 0xAB),
                    gen: ev.gen - 1,
                },
            );
        }
        if h & 4 != 0 {
            let dst = (h >> 3) as usize % env.shards;
            // `t + L` is the earliest legal arrival (== the horizon when
            // `t` opened the window); the violating driver undercuts it.
            let d = if env.violate_lookahead {
                L / 2
            } else {
                L + deltas[(h >> 5) as usize % 4]
            };
            out.send(ToyIntent {
                dst,
                at: SimTime::from_ps(t.as_ps() + d),
                id: mix(h ^ 0xCD),
                gen: ev.gen - 1,
            });
        }
    }

    fn commit(&mut self, t: SimTime, i: ToyIntent) {
        if let Some(h) = self.horizon {
            assert!(
                i.at >= h,
                "lookahead violation: arrival {:?} inside the window horizon {:?}",
                i.at,
                h
            );
        }
        self.commits.push((t.as_ps(), i.dst, i.id));
        self.q.schedule_at(
            i.at,
            ToyEv {
                shard: i.dst,
                id: i.id,
                gen: i.gen,
            },
        );
    }

    fn window_begin(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }
    fn replayed(&mut self, shard: usize, t: SimTime) {
        self.order.push((t.as_ps(), shard));
    }
}

type Seed = (u64, usize, u8, u64);

/// `(replay order, commit log, per-shard hash chains, next seq)`.
type Fingerprint = (Vec<(u64, usize)>, Vec<(u64, usize, u64)>, Vec<u64>, u64);

fn run_toy(seeds: &[Seed], shards: usize, workers: Option<usize>) -> Fingerprint {
    let mut toy = Toy::new();
    for &(t, s, g, id) in seeds {
        toy.q.schedule_at(
            SimTime::from_ps(t),
            ToyEv {
                shard: s % shards,
                id,
                gen: g % 3,
            },
        );
    }
    let env = ToyEnv {
        shards,
        violate_lookahead: false,
    };
    let mut nodes = vec![0u64; shards];
    match workers {
        None => run_serial(&mut toy, &env, &mut nodes),
        Some(w) => Executor::new(w, SimTime::from_ps(L)).run(&mut toy, &env, &mut nodes),
    }
    toy.fingerprint(nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The heart of the battery: arbitrary schedules, every worker count.
    /// Times are drawn from a range a few lookaheads wide so runs span
    /// several windows and collide on exact timestamps (seq ties).
    #[test]
    fn executor_matches_serial(
        seeds in collection::vec((0u64..4 * L, 0usize..4, 0u8..3, any::<u64>()), 1..32),
        workers in 1usize..=3,
    ) {
        let serial = run_toy(&seeds, 4, None);
        let parallel = run_toy(&seeds, 4, Some(workers));
        prop_assert_eq!(serial, parallel);
    }

    /// Degenerate sharding: everything on one shard (pure lane-heap
    /// ordering) and shards outnumbering events.
    #[test]
    fn executor_matches_serial_single_shard(
        seeds in collection::vec((0u64..3 * L, 0usize..1, 0u8..3, any::<u64>()), 1..16),
    ) {
        let serial = run_toy(&seeds, 1, None);
        let parallel = run_toy(&seeds, 1, Some(2));
        prop_assert_eq!(serial, parallel);
    }
}

/// All seeds at one timestamp across every shard: the window is nothing
/// but `(time, seq)` ties, so the merge order is decided purely by
/// sequence numbers — real entries first (pre-window allocation), then
/// provisional ones in serial allocation order.
#[test]
fn all_ties_resolve_in_seq_order() {
    let seeds: Vec<Seed> = (0..12)
        .map(|i| (500, i as usize % 4, 2, 0x1234 + i))
        .collect();
    let serial = run_toy(&seeds, 4, None);
    for workers in [1, 2, 3, 4] {
        assert_eq!(
            run_toy(&seeds, 4, Some(workers)),
            serial,
            "workers = {workers}"
        );
    }
}

/// A driver that undercuts its declared lookahead must die loudly inside
/// the window (the same check `World::sched_arrival` applies), not
/// silently corrupt the order.
#[test]
#[should_panic(expected = "lookahead violation")]
fn undercut_lookahead_is_detected() {
    let mut toy = Toy::new();
    let env = ToyEnv {
        shards: 2,
        violate_lookahead: true,
    };
    // `gen > 0` guarantees dispatches emit; ids chosen so at least one
    // send fires in the first window (h & 4 is data-dependent, so seed
    // several).
    for id in 0..16u64 {
        toy.q.schedule_at(
            SimTime::from_ps(0),
            ToyEv {
                shard: (id % 2) as usize,
                id,
                gen: 2,
            },
        );
    }
    Executor::new(2, SimTime::from_ps(L)).run(&mut toy, &env, &mut [0u64; 2]);
}
