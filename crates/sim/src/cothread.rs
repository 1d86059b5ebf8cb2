//! Coroutine threads: execution-driven simulated processors.
//!
//! Proteus-style execution-driven simulation runs the *real* application
//! code and intercepts only the operations that have simulated cost or
//! semantics (shared-memory faults, locks, barriers, message sends). Rust
//! has no stackful coroutines in the standard library, so each simulated
//! CPU is an OS thread that rendezvouses with the simulation engine:
//!
//! * the engine calls [`CoThread::start`]/[`CoThread::resume`], which
//!   unblocks the program thread and then blocks the engine until the
//!   program either issues its next request via [`Port::call`] or finishes;
//! * the program thread blocks in [`Port::call`] until the engine answers.
//!
//! At any instant at most one of {engine, one program thread} is running,
//! so the simulation stays deterministic even though application data lives
//! in shared memory. One engine → program → engine round trip costs about
//! 4 µs with both threads on one CPU and 11–15 µs across cores (measured on
//! a 2-vCPU 2 GHz Xeon guest; `cni-bench/BENCHMARK.md`, Measured facts) —
//! affordable because programs only yield on *simulated communication*,
//! never on ordinary computation.
//!
//! Dropping a [`CoThread`] before the program finishes cancels it: the next
//! `Port::call` unwinds the program thread with a private panic payload that
//! the wrapper swallows, so aborted simulations don't leak threads.

use cni_trace::{TraceEvent, TraceSink};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// What a resumed co-thread handed back to the engine.
#[derive(Debug, PartialEq, Eq)]
pub enum Yield<Req> {
    /// The program issued a request and is now blocked awaiting the
    /// response.
    Request(Req),
    /// The program ran to completion.
    Finished,
}

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
    trace: TraceSink,
    cpu: u32,
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
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        let _ = req_tx.send(Wire::Panicked(msg));
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
            trace: TraceSink::Disabled,
            cpu: 0,
        }
    }

    /// Attach a trace sink: every engine↔program control transfer records a
    /// `CothreadSwitch` event tagged with `cpu` (the simulated processor
    /// id, also used as the trace's node id).
    pub fn set_trace(&mut self, trace: TraceSink, cpu: u32) {
        self.trace = trace;
        self.cpu = cpu;
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
        self.trace.emit(
            self.cpu,
            TraceEvent::CothreadSwitch {
                cpu: self.cpu,
                enter: true,
            },
        );
        let y = self.wait_inner();
        self.trace.emit(
            self.cpu,
            TraceEvent::CothreadSwitch {
                cpu: self.cpu,
                enter: false,
            },
        );
        y
    }

    fn wait_inner(&mut self) -> Yield<Req> {
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

    /// The name given at spawn time (also the OS thread name).
    pub fn name(&self) -> &str {
        &self.name
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
