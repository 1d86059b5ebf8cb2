//! Execution-driven simulated processors: programs the engine polls in
//! place.
//!
//! Proteus-style execution-driven simulation runs the *real* application
//! code and intercepts only the operations that have simulated cost or
//! semantics (shared-memory faults, locks, barriers, message sends). Each
//! simulated CPU's program is a future, and the engine holds it in a
//! [`Task`]:
//!
//! * the engine calls [`Task::start`]/[`Task::resume`], which polls the
//!   future on the engine's own thread until the program either posts its
//!   next request to its [`Mailbox`] and returns `Pending`, or finishes;
//! * the program awaits [`Mailbox::call`], whose first poll posts the
//!   request and whose next poll, after the engine's reply, returns it.
//!
//! Only the engine ever resumes a program, so the poll uses a no-op waker
//! and one thread runs the engine and every program: the simulation is
//! deterministic by construction, even though application data lives in
//! shared memory. A round trip is one poll plus four uncontended locks of
//! a one-slot mailbox, 85–100 ns pinned on a 2-vCPU Xeon guest, and
//! programs only yield on *simulated communication*, never on ordinary
//! computation. Dropping a [`Task`] drops its future, which cancels the
//! program.
//!
//! [`CoThread`] and [`Port`] are the thread-backed runtime the engine used
//! before: one OS thread per program, rendezvousing with the engine over
//! `sync_channel`s at 4–5.4 µs a round trip with both threads on one CPU
//! and 11–15 µs across cores (same guest; `cni-bench/BENCHMARK.md`,
//! Measured facts). The simulator no longer
//! runs programs on them; they stay for the benchmark's co-thread probe.
//! Dropping a [`CoThread`] before the program finishes cancels it: the
//! next `Port::call` unwinds the program thread with a private panic
//! payload that the wrapper swallows, so aborted runs don't leak threads.

use cni_trace::{TraceEvent, TraceSink};
use std::any::Any;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

/// What a resumed program handed back to the engine.
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

/// The text of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What sits between a [`Task`] and its program.
enum Slot<Req, Resp> {
    Empty,
    Request(Req),
    Reply(Resp),
}

/// Lock a task's mailbox slot. Nothing that can panic runs while it is
/// held, so a poisoned lock still holds a whole value.
fn lock<Req, Resp>(slot: &Mutex<Slot<Req, Resp>>) -> MutexGuard<'_, Slot<Req, Resp>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The program-side endpoint of a [`Task`]: issue simulated-service
/// requests with [`Mailbox::call`].
pub struct Mailbox<Req, Resp> {
    slot: Arc<Mutex<Slot<Req, Resp>>>,
}

impl<Req, Resp> Mailbox<Req, Resp> {
    /// Post `req` for the engine, replacing any reply left unread. The
    /// caller must then return `Poll::Pending`: the engine takes the
    /// request when the poll returns and resumes the program with its
    /// reply.
    pub fn post(&self, req: Req) {
        *lock(&self.slot) = Slot::Request(req);
    }

    /// Hand `req` to the engine and await its response.
    pub fn call(&self, req: Req) -> Call<'_, Req, Resp> {
        Call {
            mailbox: self,
            req: Some(req),
        }
    }
}

/// The future of [`Mailbox::call`]: its first poll posts the request, and
/// the poll after the engine's reply returns it.
#[must_use = "a request does nothing unless awaited"]
pub struct Call<'a, Req, Resp> {
    mailbox: &'a Mailbox<Req, Resp>,
    req: Option<Req>,
}

impl<Req: Unpin, Resp> Future for Call<'_, Req, Resp> {
    type Output = Resp;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<Resp> {
        if let Some(req) = self.req.take() {
            self.mailbox.post(req);
            return Poll::Pending;
        }
        match std::mem::replace(&mut *lock(&self.mailbox.slot), Slot::Empty) {
            Slot::Reply(resp) => Poll::Ready(resp),
            _ => Poll::Pending,
        }
    }
}

/// Engine-side handle to a suspended program: its future, polled on the
/// caller's thread.
pub struct Task<Req, Resp> {
    /// `None` once the program finished, panicked or suspended without a
    /// request.
    future: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
    slot: Arc<Mutex<Slot<Req, Resp>>>,
    name: String,
    started: bool,
    trace: TraceSink,
    cpu: u32,
}

impl<Req, Resp> Task<Req, Resp> {
    /// Create a task for the future `program` builds from the task's
    /// mailbox. No program code runs until [`Task::start`] is called.
    pub fn spawn<F, Fut>(name: &str, program: F) -> Self
    where
        F: FnOnce(Mailbox<Req, Resp>) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let slot = Arc::new(Mutex::new(Slot::Empty));
        let future = program(Mailbox { slot: slot.clone() });
        Task {
            future: Some(Box::pin(future)),
            slot,
            name: name.to_string(),
            started: false,
            trace: TraceSink::Disabled,
            cpu: 0,
        }
    }

    /// Attach a trace sink: every poll is bracketed by `CothreadSwitch`
    /// events tagged with `cpu` (the simulated processor id, also used as
    /// the trace's node id).
    pub fn set_trace(&mut self, trace: TraceSink, cpu: u32) {
        self.trace = trace;
        self.cpu = cpu;
    }

    /// Begin executing the program; returns at its first yield.
    ///
    /// # Panics
    /// Panics if called twice, or if the program panics or suspends
    /// without a request before yielding.
    pub fn start(&mut self) -> Yield<Req> {
        assert!(!self.started, "program {:?} already started", self.name);
        self.started = true;
        self.poll()
    }

    /// Deliver `resp` to the program's pending [`Mailbox::call`] and run
    /// it to its next yield.
    ///
    /// # Panics
    /// Panics if the program has not started, has already finished, or
    /// panics or suspends without a request while running.
    pub fn resume(&mut self, resp: Resp) -> Yield<Req> {
        assert!(self.started, "program {:?} not started", self.name);
        assert!(
            self.future.is_some(),
            "program {:?} already finished",
            self.name
        );
        *lock(&self.slot) = Slot::Reply(resp);
        self.poll()
    }

    fn poll(&mut self) -> Yield<Req> {
        self.trace.emit(
            self.cpu,
            TraceEvent::CothreadSwitch {
                cpu: self.cpu,
                enter: true,
            },
        );
        let y = self.poll_inner();
        self.trace.emit(
            self.cpu,
            TraceEvent::CothreadSwitch {
                cpu: self.cpu,
                enter: false,
            },
        );
        y
    }

    fn poll_inner(&mut self) -> Yield<Req> {
        let Some(future) = self.future.as_mut() else {
            unreachable!("start and resume poll only a live program");
        };
        let mut cx = Context::from_waker(Waker::noop());
        let polled = panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
        let posted = std::mem::replace(&mut *lock(&self.slot), Slot::Empty);
        if let (Ok(Poll::Pending), Slot::Request(req)) = (&polled, posted) {
            return Yield::Request(req);
        }
        self.future = None;
        match polled {
            Ok(Poll::Ready(())) => Yield::Finished,
            Ok(Poll::Pending) => panic!(
                "program {:?} suspended without a request: it awaited something \
                 other than its own simulated operations",
                self.name
            ),
            Err(payload) => panic!(
                "program {:?} panicked: {}",
                self.name,
                panic_message(&*payload)
            ),
        }
    }

    /// True once the program has run to completion.
    pub fn is_finished(&self) -> bool {
        self.started && self.future.is_none()
    }
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
    fn task_request_response_roundtrip() {
        let mut task: Task<u32, u32> = Task::spawn("adder", |mailbox| async move {
            let mut acc = 0;
            for i in 0..5u32 {
                acc = mailbox.call(acc + i).await;
            }
            assert_eq!(acc, 1 + 2 + 3 + 4);
        });
        let mut y = task.start();
        let mut sum = 0;
        while let Yield::Request(v) = y {
            sum = v;
            y = task.resume(v);
        }
        assert_eq!(sum, 10);
        assert!(task.is_finished());
    }

    #[test]
    fn task_finishes_without_requests() {
        let mut task: Task<(), ()> = Task::spawn("noop", |_mailbox| async {});
        assert!(!task.is_finished());
        assert_eq!(task.start(), Yield::Finished);
        assert!(task.is_finished());
    }

    #[test]
    fn task_does_not_run_before_start() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let mut task: Task<(), ()> = Task::spawn("lazy", move |_mailbox| async move {
            f2.store(true, Ordering::SeqCst);
        });
        assert!(!flag.load(Ordering::SeqCst), "ran before start()");
        assert_eq!(task.start(), Yield::Finished);
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn task_drop_cancels_mid_flight() {
        use std::sync::atomic::{AtomicBool, Ordering};
        /// Records that the program's locals were dropped.
        struct Guard(Arc<AtomicBool>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let guard = Guard(dropped.clone());
        let mut task: Task<u32, u32> = Task::spawn("cancelled", move |mailbox| async move {
            let _guard = guard;
            let _ = mailbox.call(1).await;
            let _ = mailbox.call(2).await;
            unreachable!("second call must cancel");
        });
        assert_eq!(task.start(), Yield::Request(1));
        assert_eq!(task.resume(0), Yield::Request(2));
        assert!(!dropped.load(Ordering::SeqCst));
        drop(task); // program suspended in call(2); dropping cancels it
        assert!(dropped.load(Ordering::SeqCst), "program state not dropped");
    }

    #[test]
    #[should_panic(expected = "program \"bomb\" panicked: boom")]
    fn task_panic_propagates_with_its_name() {
        let mut task: Task<u32, u32> = Task::spawn("bomb", |_mailbox| async {
            panic!("boom");
        });
        let _ = task.start();
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn task_resume_after_finish_panics() {
        let mut task: Task<u32, u32> = Task::spawn("done", |_mailbox| async {});
        assert_eq!(task.start(), Yield::Finished);
        let _ = task.resume(0);
    }

    #[test]
    #[should_panic(expected = "program \"stuck\" suspended without a request")]
    fn task_suspending_without_a_request_panics() {
        let mut task: Task<u32, u32> =
            Task::spawn("stuck", |_mailbox| std::future::pending::<()>());
        let _ = task.start();
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
