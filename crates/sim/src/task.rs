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
//! shared memory. The types hold the engine to that: the mailbox is one
//! `Rc<Cell<_>>` slot, so neither a task nor its program is `Send`. A
//! round trip is one poll and four moves through that slot, and programs
//! only yield on *simulated communication*, never on ordinary
//! computation. Dropping a [`Task`] drops its future, which cancels the
//! program.

use cni_trace::{TraceEvent, TraceSink};
use std::any::Any;
use std::cell::Cell;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// What a resumed program handed back to the engine.
#[derive(Debug, PartialEq, Eq)]
pub enum Yield<Req> {
    /// The program issued a request and is now blocked awaiting the
    /// response.
    Request(Req),
    /// The program ran to completion.
    Finished,
}

/// The text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
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

/// The program-side endpoint of a [`Task`]: issue simulated-service
/// requests with [`Mailbox::call`].
pub struct Mailbox<Req, Resp> {
    slot: Rc<Cell<Slot<Req, Resp>>>,
}

impl<Req, Resp> Mailbox<Req, Resp> {
    /// Post `req` for the engine, replacing any reply left unread. The
    /// caller must then return `Poll::Pending`: the engine takes the
    /// request when the poll returns and resumes the program with its
    /// reply.
    pub fn post(&self, req: Req) {
        self.slot.set(Slot::Request(req));
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
        match self.mailbox.slot.replace(Slot::Empty) {
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
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    slot: Rc<Cell<Slot<Req, Resp>>>,
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
        Fut: Future<Output = ()> + 'static,
    {
        let slot = Rc::new(Cell::new(Slot::Empty));
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
        self.slot.set(Slot::Reply(resp));
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
        let posted = self.slot.replace(Slot::Empty);
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let flag = Rc::new(Cell::new(false));
        let f2 = flag.clone();
        let mut task: Task<(), ()> = Task::spawn("lazy", move |_mailbox| async move {
            f2.set(true);
        });
        assert!(!flag.get(), "ran before start()");
        assert_eq!(task.start(), Yield::Finished);
        assert!(flag.get());
    }

    #[test]
    fn task_drop_cancels_mid_flight() {
        /// Records that the program's locals were dropped.
        struct Guard(Rc<Cell<bool>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let guard = Guard(dropped.clone());
        let mut task: Task<u32, u32> = Task::spawn("cancelled", move |mailbox| async move {
            let _guard = guard;
            let _ = mailbox.call(1).await;
            let _ = mailbox.call(2).await;
            unreachable!("second call must cancel");
        });
        assert_eq!(task.start(), Yield::Request(1));
        assert_eq!(task.resume(0), Yield::Request(2));
        assert!(!dropped.get());
        drop(task); // program suspended in call(2); dropping cancels it
        assert!(dropped.get(), "program state not dropped");
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
    #[should_panic(expected = "program \"twice\" already started")]
    fn task_start_twice_panics() {
        let mut task: Task<u32, u32> = Task::spawn("twice", |mailbox| async move {
            let _ = mailbox.call(1).await;
        });
        assert_eq!(task.start(), Yield::Request(1));
        let _ = task.start();
    }

    #[test]
    #[should_panic(expected = "program \"early\" not started")]
    fn task_resume_before_start_panics() {
        let mut task: Task<u32, u32> = Task::spawn("early", |_mailbox| async {});
        let _ = task.resume(0);
    }

    #[test]
    #[should_panic(expected = "program \"fmt\" panicked: bad word 7 at page 3")]
    fn task_panic_keeps_a_formatted_message() {
        // A formatted panic carries a `String` payload, not a `&str`.
        let mut task: Task<u32, u32> = Task::spawn("fmt", |_mailbox| async {
            let (word, page) = (7, 3);
            panic!("bad word {word} at page {page}");
        });
        let _ = task.start();
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let text: Box<dyn Any + Send> = Box::new("plain");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        let other: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*text), "plain");
        assert_eq!(panic_message(&*owned), "owned");
        assert_eq!(panic_message(&*other), "non-string panic payload");
    }

    #[test]
    fn task_trace_brackets_every_poll() {
        let sink = TraceSink::ring(16);
        let mut task: Task<u32, u32> = Task::spawn("traced", |mailbox| async move {
            let _ = mailbox.call(1).await;
        });
        task.set_trace(sink.clone(), 3);
        assert_eq!(task.start(), Yield::Request(1));
        assert_eq!(task.resume(0), Yield::Finished);
        let recs = sink.drain();
        let switches: Vec<(u32, TraceEvent)> = recs.iter().map(|r| (r.node, r.event)).collect();
        let switch = |enter| (3, TraceEvent::CothreadSwitch { cpu: 3, enter });
        assert_eq!(
            switches,
            vec![switch(true), switch(false), switch(true), switch(false)]
        );
    }

    #[test]
    fn tasks_interleave_exactly_as_the_caller_resumes_them() {
        // Two programs share plain host state through an `Rc`: only the
        // caller resumes them, so the log is the caller's order and
        // nothing else, and a blocked program is not finished.
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let worker = |name: &'static str| {
            let log = log.clone();
            Task::spawn(name, move |mailbox: Mailbox<u32, u32>| async move {
                for step in 0..2 {
                    log.borrow_mut().push((name, step));
                    let _ = mailbox.call(step).await;
                }
            })
        };
        let (mut a, mut b) = (worker("a"), worker("b"));
        assert_eq!(b.start(), Yield::Request(0));
        assert_eq!(a.start(), Yield::Request(0));
        assert_eq!(a.resume(0), Yield::Request(1));
        assert!(!b.is_finished());
        assert_eq!(b.resume(0), Yield::Request(1));
        assert_eq!(b.resume(1), Yield::Finished);
        assert_eq!(a.resume(1), Yield::Finished);
        assert!(a.is_finished() && b.is_finished());
        assert_eq!(*log.borrow(), vec![("b", 0), ("a", 0), ("a", 1), ("b", 1)]);
    }
}
