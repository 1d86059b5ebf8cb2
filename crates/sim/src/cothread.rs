//! The thread-backed program runtime the engine used before [`crate::Task`]:
//! one OS thread per program, rendezvousing with the engine over
//! `sync_channel`s at 4–5.4 µs a round trip with both threads on one CPU
//! and 11–15 µs across cores (2-vCPU Xeon guest; `cni-bench/BENCHMARK.md`,
//! Measured facts). It stays only for the benchmark's co-thread probe.
//! Dropping a [`CoThread`] before the program finishes cancels it: the
//! next `Port::call` unwinds the program thread with a private panic
//! payload that the wrapper swallows, so aborted runs don't leak threads.

use crate::task::{panic_message, Yield};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

enum Wire<Req> {
    Request(Req),
    Finished,
    Panicked(String),
}

/// Private panic payload used to unwind a cancelled program thread.
struct Cancelled;

/// The program-side endpoint: issue simulated-service requests with
/// [`Port::call`].
pub struct Port<Req, Resp> {
    req_tx: SyncSender<Wire<Req>>,
    resp_rx: Receiver<Resp>,
}

impl<Req, Resp> Port<Req, Resp> {
    /// Hand `req` to the engine and block until it responds.
    ///
    /// If the engine has dropped the [`CoThread`] (simulation aborted), this
    /// unwinds the program thread; the unwind is caught by the co-thread
    /// wrapper and the thread exits quietly.
    pub fn call(&mut self, req: Req) -> Resp {
        if self.req_tx.send(Wire::Request(req)).is_err() {
            panic::panic_any(Cancelled);
        }
        match self.resp_rx.recv() {
            Ok(resp) => resp,
            Err(_) => panic::panic_any(Cancelled),
        }
    }
}

/// Engine-side handle to a suspended program.
pub struct CoThread<Req, Resp> {
    req_rx: Option<Receiver<Wire<Req>>>,
    resp_tx: Option<SyncSender<Resp>>,
    start_tx: Option<SyncSender<()>>,
    handle: Option<JoinHandle<()>>,
    name: String,
    started: bool,
    finished: bool,
}

impl<Req: Send + 'static, Resp: Send + 'static> CoThread<Req, Resp> {
    /// Create a co-thread for `program`. The program does not begin running
    /// until [`CoThread::start`] is called.
    pub fn spawn<F>(name: &str, program: F) -> Self
    where
        F: FnOnce(&mut Port<Req, Resp>) + Send + 'static,
    {
        let (req_tx, req_rx) = sync_channel::<Wire<Req>>(1);
        let (resp_tx, resp_rx) = sync_channel::<Resp>(1);
        let (start_tx, start_rx) = sync_channel::<()>(1);
        let thread_name = name.to_string();
        let handle = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || {
                // Hold until the engine explicitly starts us, so no program
                // code runs concurrently with the engine.
                if start_rx.recv().is_err() {
                    return; // cancelled before start
                }
                let mut port = Port {
                    req_tx: req_tx.clone(),
                    resp_rx,
                };
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| program(&mut port)));
                match outcome {
                    Ok(()) => {
                        let _ = req_tx.send(Wire::Finished);
                    }
                    Err(payload) => {
                        if payload.downcast_ref::<Cancelled>().is_some() {
                            // Engine went away; exit quietly.
                            return;
                        }
                        let _ = req_tx.send(Wire::Panicked(panic_message(&*payload)));
                    }
                }
            })
            .expect("failed to spawn co-thread");
        CoThread {
            req_rx: Some(req_rx),
            resp_tx: Some(resp_tx),
            start_tx: Some(start_tx),
            handle: Some(handle),
            name: thread_name,
            started: false,
            finished: false,
        }
    }

    /// Begin executing the program; blocks until its first yield.
    ///
    /// # Panics
    /// Panics if called twice, or if the program panics before yielding.
    pub fn start(&mut self) -> Yield<Req> {
        assert!(!self.started, "co-thread {:?} already started", self.name);
        self.started = true;
        self.start_tx
            .take()
            .expect("start channel present before start")
            .send(())
            .expect("co-thread died before start");
        self.wait()
    }

    /// Deliver `resp` to the program's pending [`Port::call`] and block
    /// until its next yield.
    ///
    /// # Panics
    /// Panics if the program has not started, has already finished, or
    /// panics while running.
    pub fn resume(&mut self, resp: Resp) -> Yield<Req> {
        assert!(self.started, "co-thread {:?} not started", self.name);
        assert!(!self.finished, "co-thread {:?} already finished", self.name);
        self.resp_tx
            .as_ref()
            .expect("resp channel present while running")
            .send(resp)
            .unwrap_or_else(|_| panic!("co-thread {:?} died awaiting response", self.name));
        self.wait()
    }

    fn wait(&mut self) -> Yield<Req> {
        let wire = self
            .req_rx
            .as_ref()
            .expect("req channel present while running")
            .recv();
        match wire {
            Ok(Wire::Request(req)) => Yield::Request(req),
            Ok(Wire::Finished) => {
                self.finished = true;
                Yield::Finished
            }
            Ok(Wire::Panicked(msg)) => {
                self.finished = true;
                panic!("co-thread {:?} panicked: {msg}", self.name)
            }
            Err(_) => {
                self.finished = true;
                panic!("co-thread {:?} disconnected unexpectedly", self.name)
            }
        }
    }

    /// True once the program has run to completion.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl<Req, Resp> Drop for CoThread<Req, Resp> {
    fn drop(&mut self) {
        // Dropping the channel endpoints cancels any pending Port::call and
        // prevents a not-yet-started program from ever running.
        self.start_tx = None;
        self.resp_tx = None;
        self.req_rx = None;
        if let Some(handle) = self.handle.take() {
            // The program thread can only be blocked on one of the channels
            // we just dropped, so this join terminates promptly.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_roundtrip() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("adder", |port| {
            let mut acc = 0;
            for i in 0..5u32 {
                acc = port.call(acc + i);
            }
            assert_eq!(acc, 1 + 2 + 3 + 4);
        });
        let mut y = co.start();
        let mut sum = 0;
        while let Yield::Request(v) = y {
            sum = v;
            y = co.resume(v);
        }
        assert_eq!(sum, 10);
        assert!(co.is_finished());
    }

    #[test]
    fn finishes_without_requests() {
        let mut co: CoThread<(), ()> = CoThread::spawn("noop", |_port| {});
        assert_eq!(co.start(), Yield::Finished);
    }

    #[test]
    fn program_does_not_run_before_start() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let mut co: CoThread<(), ()> = CoThread::spawn("lazy", move |_port| {
            f2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!flag.load(Ordering::SeqCst), "ran before start()");
        assert_eq!(co.start(), Yield::Finished);
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_cancels_unstarted() {
        let co: CoThread<u32, u32> = CoThread::spawn("never", |port| {
            port.call(1);
            unreachable!("must not run");
        });
        drop(co); // must not hang or panic
    }

    #[test]
    fn drop_cancels_mid_flight() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("cancelled", |port| {
            let _ = port.call(1);
            let _ = port.call(2);
            unreachable!("second call must cancel");
        });
        match co.start() {
            Yield::Request(1) => {}
            other => panic!("unexpected yield {:?}", other),
        }
        let y = co.resume(0);
        assert_eq!(y, Yield::Request(2));
        drop(co); // program blocked in call(2); drop must unwind it cleanly
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn program_panic_propagates() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("bomb", |_port| {
            panic!("boom");
        });
        let _ = co.start();
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn resume_after_finish_panics() {
        let mut co: CoThread<u32, u32> = CoThread::spawn("done", |_port| {});
        assert_eq!(co.start(), Yield::Finished);
        let _ = co.resume(0);
    }

    #[test]
    fn many_cothreads_interleave_deterministically() {
        // Round-robin 8 co-threads, each yielding its own sequence; the
        // collected trace must be identical across repeated runs.
        fn run_once() -> Vec<(usize, u32)> {
            let mut cos: Vec<CoThread<u32, u32>> = (0..8)
                .map(|id| {
                    CoThread::spawn(&format!("w{id}"), move |port| {
                        for k in 0..10u32 {
                            port.call(id as u32 * 100 + k);
                        }
                    })
                })
                .collect();
            let mut trace = Vec::new();
            let mut pending: Vec<Option<Yield<u32>>> =
                cos.iter_mut().map(|c| Some(c.start())).collect();
            loop {
                let mut progressed = false;
                for (i, co) in cos.iter_mut().enumerate() {
                    if let Some(Yield::Request(v)) = pending[i].take() {
                        trace.push((i, v));
                        pending[i] = Some(co.resume(v));
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            trace
        }
        assert_eq!(run_once(), run_once());
    }
}
