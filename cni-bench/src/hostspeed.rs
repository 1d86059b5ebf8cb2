//! Host-speed reference: a fixed amount of standard-library work timed
//! in every cycle of repetitions, so that host time can be reported at a
//! nominal host speed.
//!
//! On a shared host the same run's wall time drifts by tens of percent
//! over minutes as neighbours load the machine (BENCHMARK.md records the
//! same Jacobi input at 0.29 s and at 0.46 s within an hour), and a whole
//! 20-second run sits inside one such phase: its set-up and run times
//! rise and fall together. The reference kernel shares the simulator's
//! bottlenecks — sorting and pointer chasing for the event queue and the
//! protocol maps, a thread ping-pong for the co-thread handoffs — and is
//! timed in the same phase, so scaling by it cancels most of the drift.
//! It uses no code of this repository, so a change to the simulator
//! cannot move it, and it allocates nothing once built, so it leaves the
//! allocator state the next repetition sees as it was.

use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// What the reference kernel takes at nominal host speed: about its time
/// on an otherwise idle 2 GHz Xeon vCPU. Scaled times are reported as if
/// the host ran the kernel in exactly this long.
pub const NOMINAL_S: f64 = 0.025;

/// Words in the kernel's buffer (1 MB: larger than a core's private
/// caches, as the simulator's working sets are).
const WORDS: usize = 1 << 17;
/// Thread round trips per kernel run.
const TRIPS: u64 = 2_000;

/// The reference kernel with its buffers and ping-pong peer, built once.
pub struct Reference {
    keys: Vec<u64>,
    next: Vec<u32>,
    to_peer: Option<SyncSender<u64>>,
    from_peer: Receiver<u64>,
    peer: Option<JoinHandle<()>>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocate the buffers and start the peer thread.
    pub fn new() -> Reference {
        let (to_peer, peer_rx) = sync_channel::<u64>(0);
        let (peer_tx, from_peer) = sync_channel::<u64>(0);
        let peer = std::thread::spawn(move || {
            while let Ok(v) = peer_rx.recv() {
                if peer_tx.send(v + 1).is_err() {
                    break;
                }
            }
        });
        // A single cycle through all slots with a large fixed stride, so
        // the chase touches the whole buffer in a cache-hostile order.
        let next = (0..WORDS as u32)
            .map(|i| (i + 40_503) % WORDS as u32)
            .collect();
        Reference {
            keys: vec![0; WORDS],
            next,
            to_peer: Some(to_peer),
            from_peer,
            peer: Some(peer),
        }
    }

    /// Run the kernel once and return its time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *k = x >> 11;
        }
        self.keys.sort_unstable();
        let mut at = 0u32;
        let mut acc = 0u64;
        for _ in 0..WORDS {
            acc = acc.wrapping_add(self.keys[at as usize]);
            at = self.next[at as usize];
        }
        let to_peer = self.to_peer.as_ref().expect("peer channel open");
        for i in 0..TRIPS {
            to_peer.send(i).expect("reference peer alive");
            acc = acc.wrapping_add(self.from_peer.recv().expect("reference peer answers"));
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        self.to_peer = None;
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// `seconds` measured while the reference kernel took `reference_s`,
/// scaled to nominal host speed.
pub fn scaled(seconds: f64, reference_s: f64) -> f64 {
    seconds * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_nominal_reference() {
        assert_eq!(scaled(1.0, NOMINAL_S), 1.0);
        assert_eq!(scaled(1.0, 2.0 * NOMINAL_S), 0.5);
    }

    #[test]
    fn reference_kernel_runs_repeatedly() {
        let mut r = Reference::new();
        let (a, b) = (r.time(), r.time());
        assert!(a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite());
    }
}
