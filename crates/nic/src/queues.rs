//! Application Device Channels: the user-mapped queue triplet.
//!
//! When an application opens a connection, the kernel maps one triplet of
//! transmit / receive / free queues (carved out of the board's dual-ported
//! memory) into the application's address space and gets out of the way:
//! sends and receives are descriptor enqueues/dequeues on these lock-free
//! rings. Protection comes from registration — the kernel validates the
//! buffer region at channel-open time, and the board bounds-checks each
//! descriptor against the registered region (a cheap hardware compare,
//! which is how "verification overhead is eliminated from the send and
//! receive paths").

use cni_trace::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A buffer descriptor the application and the board exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    /// Virtual address of the buffer.
    pub vaddr: u64,
    /// Length in bytes.
    pub len: u32,
    /// The Message-Cache hint bit from the message header: should the
    /// board keep a bound copy of this buffer?
    pub cacheable: bool,
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// The ring is full; the application must retry (or back off).
    Full,
    /// The descriptor points outside the channel's registered region —
    /// a protection violation.
    Protection,
}

/// One device channel's queue triplet plus its registered buffer region.
pub struct ChannelQueues {
    region: Option<(u64, u64)>,
    capacity: usize,
    transmit: VecDeque<Descriptor>,
    receive: VecDeque<Descriptor>,
    free: VecDeque<Descriptor>,
    enqueues: u64,
    dequeues: u64,
    protection_faults: u64,
    overflow_drops: u64,
    trace: TraceSink,
    node: u32,
    channel: u32,
}

impl ChannelQueues {
    /// A channel whose three rings each hold `capacity` descriptors.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queues need capacity");
        ChannelQueues {
            region: None,
            capacity,
            transmit: VecDeque::with_capacity(capacity),
            receive: VecDeque::with_capacity(capacity),
            free: VecDeque::with_capacity(capacity),
            enqueues: 0,
            dequeues: 0,
            protection_faults: 0,
            overflow_drops: 0,
            trace: TraceSink::Disabled,
            node: 0,
            channel: 0,
        }
    }

    /// Attach a trace sink; ring operations record `AdcEnqueue`/`AdcDequeue`
    /// events tagged with `node` (and carrying `channel` as payload).
    pub fn set_trace(&mut self, trace: TraceSink, node: u32, channel: u32) {
        self.trace = trace;
        self.node = node;
        self.channel = channel;
    }

    fn trace_enqueue(&self, len: u32) {
        self.trace.emit(
            self.node,
            TraceEvent::AdcEnqueue {
                channel: self.channel,
                len,
            },
        );
    }

    fn trace_dequeue(&self, len: u32) {
        self.trace.emit(
            self.node,
            TraceEvent::AdcDequeue {
                channel: self.channel,
                len,
            },
        );
    }

    /// Kernel-side: register the buffer region this channel may reference.
    /// Called once at connection setup.
    pub fn register_region(&mut self, base: u64, len: u64) {
        self.region = Some((base, len));
    }

    fn check(&mut self, d: &Descriptor) -> Result<(), QueueError> {
        match self.region {
            Some((base, len)) if d.vaddr >= base && d.vaddr + d.len as u64 <= base + len => Ok(()),
            _ => {
                self.protection_faults += 1;
                Err(QueueError::Protection)
            }
        }
    }

    fn push(
        queue: &mut VecDeque<Descriptor>,
        capacity: usize,
        d: Descriptor,
    ) -> Result<(), QueueError> {
        if queue.len() == capacity {
            return Err(QueueError::Full);
        }
        queue.push_back(d);
        Ok(())
    }

    /// A full ring refused a descriptor: counted backpressure, never a
    /// panic — the caller retries, backs off, or (for the board) NAKs.
    fn note_overflow(&mut self) {
        self.overflow_drops += 1;
        self.trace.emit(
            self.node,
            TraceEvent::RingOverflow {
                channel: self.channel,
            },
        );
    }

    /// Application: post a buffer for transmission.
    pub fn enqueue_transmit(&mut self, d: Descriptor) -> Result<(), QueueError> {
        self.check(&d)?;
        if let Err(e) = Self::push(&mut self.transmit, self.capacity, d) {
            self.note_overflow();
            return Err(e);
        }
        self.enqueues += 1;
        self.trace_enqueue(d.len);
        Ok(())
    }

    /// Board: take the next buffer to transmit.
    pub fn dequeue_transmit(&mut self) -> Option<Descriptor> {
        let d = self.transmit.pop_front();
        if let Some(d) = &d {
            self.dequeues += 1;
            self.trace_dequeue(d.len);
        }
        d
    }

    /// Application: post an empty buffer the board may fill (goes on the
    /// free queue).
    pub fn enqueue_free(&mut self, d: Descriptor) -> Result<(), QueueError> {
        self.check(&d)?;
        if let Err(e) = Self::push(&mut self.free, self.capacity, d) {
            self.note_overflow();
            return Err(e);
        }
        self.enqueues += 1;
        self.trace_enqueue(d.len);
        Ok(())
    }

    /// Board: claim a free buffer to deposit an arriving message into.
    pub fn take_free(&mut self) -> Option<Descriptor> {
        let d = self.free.pop_front();
        if let Some(d) = &d {
            self.dequeues += 1;
            self.trace_dequeue(d.len);
        }
        d
    }

    /// Board: hand a filled buffer to the application.
    pub fn post_receive(&mut self, d: Descriptor) -> Result<(), QueueError> {
        if let Err(e) = Self::push(&mut self.receive, self.capacity, d) {
            self.note_overflow();
            return Err(e);
        }
        self.enqueues += 1;
        self.trace_enqueue(d.len);
        Ok(())
    }

    /// Application: poll for a received buffer.
    pub fn dequeue_receive(&mut self) -> Option<Descriptor> {
        let d = self.receive.pop_front();
        if let Some(d) = &d {
            self.dequeues += 1;
            self.trace_dequeue(d.len);
        }
        d
    }

    /// Pending received-but-unpolled descriptors.
    pub fn receive_pending(&self) -> usize {
        self.receive.len()
    }

    /// Available free buffers.
    pub fn free_available(&self) -> usize {
        self.free.len()
    }

    /// (total enqueues, total dequeues, protection faults).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.enqueues, self.dequeues, self.protection_faults)
    }

    /// Enqueues refused because a ring was at capacity.
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> ChannelQueues {
        let mut q = ChannelQueues::new(4);
        q.register_region(0x1000, 0x4000);
        q
    }

    fn d(vaddr: u64, len: u32) -> Descriptor {
        Descriptor {
            vaddr,
            len,
            cacheable: true,
        }
    }

    #[test]
    fn transmit_fifo_order() {
        let mut q = channel();
        q.enqueue_transmit(d(0x1000, 64)).unwrap();
        q.enqueue_transmit(d(0x2000, 64)).unwrap();
        assert_eq!(q.dequeue_transmit().unwrap().vaddr, 0x1000);
        assert_eq!(q.dequeue_transmit().unwrap().vaddr, 0x2000);
        assert!(q.dequeue_transmit().is_none());
    }

    #[test]
    fn unregistered_channel_rejects_everything() {
        let mut q = ChannelQueues::new(4);
        assert_eq!(
            q.enqueue_transmit(d(0x1000, 64)),
            Err(QueueError::Protection)
        );
    }

    #[test]
    fn out_of_region_descriptor_faults() {
        let mut q = channel();
        assert_eq!(
            q.enqueue_transmit(d(0x0500, 64)),
            Err(QueueError::Protection)
        );
        // Straddling the end of the region is also a violation.
        assert_eq!(
            q.enqueue_transmit(d(0x4FFF, 64)),
            Err(QueueError::Protection)
        );
        assert_eq!(q.stats().2, 2);
    }

    #[test]
    fn ring_capacity_enforced() {
        let mut q = channel();
        for i in 0..4 {
            q.enqueue_transmit(d(0x1000 + i * 64, 64)).unwrap();
        }
        assert_eq!(q.enqueue_transmit(d(0x1000, 64)), Err(QueueError::Full));
        q.dequeue_transmit();
        q.enqueue_transmit(d(0x1000, 64)).unwrap();
    }

    #[test]
    fn overflow_is_counted_and_traced_not_fatal() {
        let mut q = ChannelQueues::new(2);
        let sink = TraceSink::ring(16);
        q.set_trace(sink.clone(), 1, 7);
        q.register_region(0x1000, 0x4000);
        q.enqueue_free(d(0x1000, 64)).unwrap();
        q.enqueue_free(d(0x1040, 64)).unwrap();
        // Every ring reports Full as counted backpressure.
        assert_eq!(q.enqueue_free(d(0x1080, 64)), Err(QueueError::Full));
        assert_eq!(q.post_receive(d(0x1000, 64)), Ok(()));
        assert_eq!(q.post_receive(d(0x1040, 64)), Ok(()));
        assert_eq!(q.post_receive(d(0x1080, 64)), Err(QueueError::Full));
        assert_eq!(q.overflow_drops(), 2);
        // The queue keeps working after overflow.
        assert!(q.take_free().is_some());
        assert!(q.enqueue_free(d(0x1080, 64)).is_ok());
        let overflows = sink
            .drain()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RingOverflow { channel: 7 }))
            .count();
        assert_eq!(overflows, 2);
    }

    #[test]
    fn free_and_receive_flow() {
        let mut q = channel();
        q.enqueue_free(d(0x3000, 2048)).unwrap();
        let buf = q.take_free().unwrap();
        assert_eq!(buf.vaddr, 0x3000);
        q.post_receive(buf).unwrap();
        assert_eq!(q.receive_pending(), 1);
        assert_eq!(q.dequeue_receive().unwrap().vaddr, 0x3000);
        assert_eq!(q.free_available(), 0);
    }

    #[test]
    fn boundary_descriptor_is_accepted() {
        let mut q = channel();
        // Exactly fills the last bytes of the region.
        assert!(q.enqueue_transmit(d(0x4000 + 0x1000 - 64, 64)).is_ok());
    }
}
