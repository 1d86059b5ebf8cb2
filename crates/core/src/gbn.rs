//! Go-back-N reliable delivery, active only under a fault plan: per-channel
//! sender windows with cumulative acknowledgements, fragmentation at the
//! plan's `max_frame_bytes`, duplicate suppression, a bounded receive ring
//! with drop-and-NAK, dup-ack fast retransmit of the missing frame, and
//! capped exponential-backoff timeouts.
//!
//! Every channel end belongs to one node: `src`'s [`Node::rel_tx`] holds
//! the `src -> dst` sender window, `dst`'s [`Node::rel_rx`] its receive
//! state. The handlers below are [`Node`] methods, so a channel is only
//! ever touched by its owner; frames and acknowledgements cross nodes as
//! [`SendIntent`]s through the fault-injecting fabric.

use crate::node::{Env, Node};
use crate::world::{Ev, SendIntent, Shared};
use cni_atm::Cell;
use cni_dsm::Msg;
use cni_nic::device::TxOrigin;
use cni_nic::TxRequest;
use cni_sim::SimTime;
use cni_trace::TraceEvent;
use std::collections::VecDeque;
use std::sync::Arc;

/// A logical message queued on the reliable-delivery layer: either a DSM
/// protocol message or an application-level send. The wire carries a real
/// byte image of it (segmented, CRC-protected, corruptible); the event
/// queue carries the structured form for dispatch once the image survives.
#[derive(Clone)]
pub(crate) enum WireMsg {
    Proto(Msg),
    App {
        src: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
    },
}

/// Wire length of a logical message in bytes.
pub(crate) fn wire_len(wire: &WireMsg) -> usize {
    match wire {
        WireMsg::Proto(msg) => msg.payload.wire_bytes(),
        WireMsg::App { len, .. } => *len as usize,
    }
}

/// One wire frame of a logical message. Messages longer than the plan's
/// `max_frame_bytes` are split into several frames, each with its own
/// sequence number and CRC domain — otherwise a multi-kilobyte PDU's
/// per-attempt survival probability `(1 - drop_prob)^cells` collapses and
/// no amount of retransmission delivers it. The receiver dispatches the
/// message when the final fragment is accepted (go-back-N delivers in
/// order, so earlier fragments are already in by then).
#[derive(Clone)]
pub(crate) struct Frag {
    pub(crate) wire: Arc<WireMsg>,
    /// Fragment index within the message, `0..nfrags`.
    pub(crate) frag: u32,
    /// Total fragments carrying this message.
    pub(crate) nfrags: u32,
    /// This fragment's wire length in bytes.
    pub(crate) bytes: u32,
    /// The message span this fragment carries (the receiver closes it
    /// when the final fragment dispatches).
    pub(crate) span: u64,
}

/// One unacknowledged frame in a sender window.
pub(crate) struct InFlight {
    pub(crate) seq: u64,
    pub(crate) frag: Frag,
    pub(crate) attempts: u32,
    pub(crate) sent_at: SimTime,
    /// Span of the frame's *first* transmission attempt: retransmission
    /// spans are recorded as its children, keeping every wire attempt
    /// causally linked to the originating send.
    pub(crate) span: u64,
}

/// Go-back-N transmit state for one (src, dst) channel.
pub(crate) struct ChanTx {
    pub(crate) next_seq: u64,
    /// Lowest unacknowledged sequence number.
    pub(crate) base: u64,
    pub(crate) window: VecDeque<InFlight>,
    /// Frames waiting for window space.
    pub(crate) pending: VecDeque<Frag>,
    /// Current retransmission timeout (doubles per timeout up to the
    /// plan's cap; resets on forward progress).
    pub(crate) rto: SimTime,
    pub(crate) timer_gen: u64,
    pub(crate) dup_acks: u32,
}

impl ChanTx {
    pub(crate) fn new(rto: SimTime) -> Self {
        ChanTx {
            next_seq: 0,
            base: 0,
            window: VecDeque::new(),
            pending: VecDeque::new(),
            rto,
            timer_gen: 0,
            dup_acks: 0,
        }
    }
}

/// Receive state for one (dst, src) channel: the next in-order sequence
/// number. Anything below it is a duplicate; anything above is discarded
/// (go-back-N keeps no out-of-order buffer) and re-acknowledged.
pub(crate) struct ChanRx {
    pub(crate) expected: u64,
}

impl Node {
    /// The `self -> dst` go-back-N transmit channel, materialised on first
    /// use. Access is always by key — channel state never depends on what
    /// other channels exist — so lazy creation is timing-neutral and a
    /// lossless run allocates nothing here.
    fn chan_tx(&mut self, env: &Env, dst: usize) -> &mut ChanTx {
        let rto0 = SimTime::from_ps(env.cfg.faults.rto_base_ps);
        self.rel_tx
            .entry(dst as u32)
            .or_insert_with(|| ChanTx::new(rto0))
    }

    /// The `self <- src` receive channel, materialised on first use.
    fn chan_rx(&mut self, src: usize) -> &mut ChanRx {
        self.rel_rx
            .entry(src as u32)
            .or_insert(ChanRx { expected: 0 })
    }

    /// Hand a logical message to the `self -> dst` go-back-N channel: send
    /// it immediately if the window has room, park it otherwise. `span`
    /// is the message span every fragment carries; each wire attempt
    /// opens a frame span under it.
    pub(crate) fn queue_reliable(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        now: SimTime,
        dst: usize,
        wire: WireMsg,
        span: u64,
    ) {
        if let WireMsg::Proto(msg) = &wire {
            let kind = msg.payload.kind();
            sh.count_proto(kind);
        }
        let total = wire_len(&wire).max(1);
        let fmax = env.cfg.faults.max_frame_bytes as usize;
        let nfrags = total.div_ceil(fmax) as u32;
        let cap = env.cfg.faults.window as usize;
        let wire = Arc::new(wire);
        let mut armed = false;
        for i in 0..nfrags {
            let bytes = if i + 1 < nfrags {
                fmax
            } else {
                total - fmax * (nfrags as usize - 1)
            } as u32;
            let frag = Frag {
                wire: wire.clone(),
                frag: i,
                nfrags,
                bytes,
                span,
            };
            let ch = self.chan_tx(env, dst);
            if ch.window.len() >= cap {
                ch.pending.push_back(frag);
                continue;
            }
            let seq = ch.next_seq;
            ch.next_seq += 1;
            let was_empty = ch.window.is_empty();
            let fspan = self.send_frame(env, sh, now, dst, seq, &frag, now, span);
            let ch = self.chan_tx(env, dst);
            ch.window.push_back(InFlight {
                seq,
                frag: frag.clone(),
                attempts: 0,
                sent_at: now,
                span: fspan,
            });
            if was_empty && !armed {
                self.arm_timer(env, sh, now, dst);
                armed = true;
            }
        }
    }

    /// Transmit one data frame: build its byte image (header, sequence
    /// number, zero fill), push it through the NIC, and emit the
    /// fabric-facing half as a [`SendIntent::Frame`] (which draws the
    /// injector fates and schedules the receive event if the end-of-PDU
    /// cell survives). `sent_at` is the fragment's *first* transmission
    /// time, carried to the receiver for one-way latency accounting.
    /// Opens a frame span under `parent` (the message span on a first
    /// attempt, the first attempt's frame span on a retransmission) and
    /// returns it.
    #[allow(clippy::too_many_arguments)]
    fn send_frame(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        now: SimTime,
        dst: usize,
        seq: u64,
        frag: &Frag,
        sent_at: SimTime,
        parent: u64,
    ) -> u64 {
        let (header, page, cacheable) = match &*frag.wire {
            WireMsg::Proto(msg) => (
                msg.payload.header_bytes(msg.src),
                msg.payload.page_payload().map(|p| p.0 as u64),
                msg.payload.cacheable(),
            ),
            WireMsg::App {
                src: asrc,
                page,
                cacheable,
                ..
            } => {
                let mut h = [0u8; 8];
                h[0] = 0xA0;
                h[1] = *asrc as u8;
                (h, *page, *cacheable)
            }
        };
        // The host DMA / Message-Cache interaction belongs to the message,
        // not to each fragment: later fragments ship board-resident bytes.
        let (page, cacheable) = if frag.frag == 0 {
            (page, cacheable)
        } else {
            (None, false)
        };
        let bytes = frag.bytes as usize;
        // Only the first 16 bytes of a frame carry information (header +
        // little-endian sequence number); the rest is zero fill that the
        // segmenter materialises directly into the PDU image, so a
        // retransmission attempt no longer allocates and copies a
        // frame-sized scratch vector.
        let mut prefix = [0u8; 16];
        let hn = header.len().min(bytes);
        prefix[..hn].copy_from_slice(&header[..hn]);
        let end = bytes.min(16);
        if end > 8 {
            prefix[8..end].copy_from_slice(&seq.to_le_bytes()[..end - 8]);
        }
        let fspan = self.open_span(
            env,
            sh,
            now,
            parent,
            cni_trace::SPAN_FRAME,
            header[0],
            dst,
            bytes,
        );
        let tx = self.nic.transmit(
            now,
            &TxRequest {
                len: bytes,
                cells: env.seg.cell_count(bytes),
                page,
                cacheable,
                dirty_lines: 0,
                origin: TxOrigin::Board,
            },
        );
        sh.commit_send(
            env,
            SendIntent::Frame {
                src: self.id,
                dst,
                seq,
                frag: frag.clone(),
                sent_at,
                prefix,
                prefix_len: end as u8,
                bytes: bytes as u32,
                span: fspan,
                now,
                host_done: tx.host_done,
                wire_start: tx.wire_start,
                cell_gap: tx.cell_gap,
            },
        );
        fspan
    }

    /// Restart the `self -> dst` retransmission timer (invalidating any
    /// previously armed one via the generation counter).
    fn arm_timer(&mut self, env: &Env, sh: &mut Shared, now: SimTime, dst: usize) {
        let ch = self.chan_tx(env, dst);
        ch.timer_gen += 1;
        let (gen, rto, seq) = (ch.timer_gen, ch.rto, ch.base);
        let src = self.id;
        sh.q.schedule_at(now + rto, Ev::RxmitTimer { src, dst, gen });
        env.trace.emit_at(
            now.as_ps(),
            src as u32,
            TraceEvent::RetransmitScheduled {
                seq,
                rto_ps: rto.as_ps(),
            },
        );
    }

    /// Send a cumulative acknowledgement frame from this node back to
    /// `to`: a real 16-byte PDU that itself crosses the faulty fabric. The
    /// ACK span is a child of `parent`, the frame span whose receipt (or
    /// rejection) provoked it.
    fn send_ack(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        now: SimTime,
        to: usize,
        ack: u64,
        parent: u64,
    ) {
        let from = self.id;
        let mut image = [0u8; 16];
        image[0] = 0xF1;
        image[1] = from as u8;
        image[8..16].copy_from_slice(&ack.to_le_bytes());
        let aspan = self.open_span(env, sh, now, parent, cni_trace::SPAN_ACK, 0xF1, to, 16);
        let tx = self.nic.transmit(
            now,
            &TxRequest {
                len: 16,
                cells: env.seg.cell_count(16),
                page: None,
                cacheable: false,
                dirty_lines: 0,
                origin: TxOrigin::Board,
            },
        );
        sh.commit_send(
            env,
            SendIntent::Ack {
                from,
                to,
                ack,
                image,
                span: aspan,
                now,
                host_done: tx.host_done,
                wire_start: tx.wire_start,
                cell_gap: tx.cell_gap,
            },
        );
    }

    /// A data frame's surviving cells reached this node: reassemble and
    /// CRC-check them, suppress duplicates, admit in-order frames to the
    /// receive ring (drop-and-NAK when it is full) and dispatch the inner
    /// message exactly once. Every outcome is acknowledged — a corrupt or
    /// out-of-order frame re-acknowledges the current expectation, which
    /// doubles as a NAK for go-back-N.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_frame_rx(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        t: SimTime,
        src: usize,
        seq: u64,
        cells: Vec<Cell>,
        span: u64,
        frag: Frag,
        sent_at: SimTime,
    ) {
        match self.nic.ingest_frame(&cells) {
            Some(Ok(pdu)) => {
                // The frame's bytes are not consumed further (the typed
                // message rides in `Frag::wire`); hand the gather buffer
                // straight back to the NIC's pool.
                self.nic.recycle_pdu(pdu);
            }
            Some(Err(_)) => {
                // The NIC counted the discard (and the CRC failure). The
                // frame span closes here: its lifecycle ended in
                // rejection, and the NAK it provokes is its child.
                self.close_span(env, t, span);
                let ack = self.chan_rx(src).expected;
                self.send_ack(env, sh, t, src, ack, span);
                return;
            }
            // Unreachable in practice: FrameRx is only scheduled when the
            // end-of-PDU cell was delivered, which always completes a PDU.
            None => return,
        }
        self.close_span(env, t, span);
        let expected = self.chan_rx(src).expected;
        if seq != expected {
            if seq < expected {
                sh.rel_stats.duplicates += 1;
            }
            self.send_ack(env, sh, t, src, expected, span);
            return;
        }
        if frag.frag + 1 < frag.nfrags {
            // An interior fragment: accept and acknowledge it, but the
            // message dispatches only with its final fragment.
            self.chan_rx(src).expected = seq + 1;
            self.send_ack(env, sh, t, src, seq + 1, span);
            return;
        }
        // Only whole messages occupy receive-ring slots.
        let ring = env.cfg.faults.rx_ring_frames;
        if ring > 0 && self.ring_used >= ring {
            sh.rel_stats.ring_overflows += 1;
            env.trace.emit_at(
                t.as_ps(),
                self.id as u32,
                TraceEvent::RingOverflow {
                    channel: src as u32,
                },
            );
            self.send_ack(env, sh, t, src, expected, span);
            return;
        }
        self.ring_used += 1;
        self.ring_hw = self.ring_hw.max(self.ring_used);
        self.chan_rx(src).expected = seq + 1;
        // One-way latency measured from the final fragment's *first*
        // transmission.
        let kind = match &*frag.wire {
            WireMsg::Proto(msg) => msg.payload.kind(),
            WireMsg::App { .. } => 0xA0,
        };
        let li = if kind == 0xA0 {
            9
        } else {
            (kind - 0xD0) as usize
        };
        sh.latency[li].record((t - sent_at).as_ps() / 1000);
        match (*frag.wire).clone() {
            WireMsg::Proto(msg) => self.arrive_proto(env, sh, t, msg, frag.span),
            WireMsg::App {
                src: asrc,
                len,
                page,
                cacheable,
                data,
                ..
            } => self.arrive_app(env, sh, t, asrc, len, page, cacheable, data, frag.span),
        }
        // The frame occupies its ring slot until the NIC processor is done
        // handling it.
        let release = self.nic.nic_busy_until().max(t);
        sh.q.schedule_at(release, Ev::RingRelease { dst: self.id });
        self.send_ack(env, sh, t, src, seq + 1, span);
    }

    /// A (possibly corrupt) acknowledgement from `from` arrived back at
    /// this sender.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_ack_rx(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        t: SimTime,
        from: usize,
        ack: u64,
        cells: Vec<Cell>,
        span: u64,
    ) {
        match self.nic.ingest_frame(&cells) {
            Some(Ok(pdu)) => self.nic.recycle_pdu(pdu),
            // Corrupt ack: the NIC counted it; retransmission recovers.
            // The ACK span stays unclosed — like a dropped one, it never
            // took effect, and the unclosed count doubles as a loss
            // diagnostic.
            _ => return,
        }
        self.close_span(env, t, span);
        let cap = env.cfg.faults.window as usize;
        let rto0 = SimTime::from_ps(env.cfg.faults.rto_base_ps);
        let ch = self.chan_tx(env, from);
        if ack > ch.base {
            while ch.base < ack {
                let acked = ch.window.pop_front();
                debug_assert!(acked.is_some(), "cumulative ack beyond the window");
                ch.base += 1;
            }
            ch.dup_acks = 0;
            ch.rto = rto0;
            // Admit parked frames into the freed window.
            let mut admitted = Vec::new();
            while ch.window.len() < cap {
                let Some(frag) = ch.pending.pop_front() else {
                    break;
                };
                let seq = ch.next_seq;
                ch.next_seq += 1;
                ch.window.push_back(InFlight {
                    seq,
                    frag: frag.clone(),
                    attempts: 0,
                    sent_at: t,
                    span: 0,
                });
                admitted.push((seq, frag));
            }
            let empty = ch.window.is_empty();
            for (seq, frag) in &admitted {
                let fspan = self.send_frame(env, sh, t, from, *seq, frag, t, frag.span);
                if let Some(f) = self
                    .chan_tx(env, from)
                    .window
                    .iter_mut()
                    .find(|f| f.seq == *seq)
                {
                    f.span = fspan;
                }
            }
            if empty {
                // The window is fully acked: invalidate the pending timer.
                self.chan_tx(env, from).timer_gen += 1;
            } else {
                self.arm_timer(env, sh, t, from);
            }
        } else {
            ch.dup_acks += 1;
            if ch.dup_acks >= 2 && !ch.window.is_empty() {
                ch.dup_acks = 0;
                sh.rel_stats.fast_retransmits += 1;
                // Resend only the frame the receiver is missing. Resending
                // the whole window here is unstable: every duplicate frame
                // provokes another duplicate ack, so a W-frame window turns
                // 2 dup-acks into W more — an ack storm with gain W/2. The
                // full go-back-N resend belongs to the paced timeout path.
                self.resend_front(env, sh, t, from);
            }
        }
    }

    /// Fast-retransmit the oldest unacknowledged frame on `self -> dst`
    /// (the one the duplicate acks say is missing) and restart the timer.
    fn resend_front(&mut self, env: &Env, sh: &mut Shared, t: SimTime, dst: usize) {
        let src = self.id;
        let ch = self.chan_tx(env, dst);
        let Some(f) = ch.window.front_mut() else {
            return;
        };
        f.attempts += 1;
        let (seq, frag, attempt, sent_at, first_span) =
            (f.seq, f.frag.clone(), f.attempts, f.sent_at, f.span);
        if attempt >= 10_000 {
            // cni-lint: allow(panic-path) -- deliberate livelock detector: 10k resends of one seq means the retransmit logic is broken and the run must die loudly, not spin forever
            panic!(
                "reliable delivery cannot make progress: {src}->{dst} seq {seq} resent {attempt} times \
                 (base {}, next {}, window {}, pending {})",
                ch.base,
                ch.next_seq,
                ch.window.len(),
                ch.pending.len(),
            );
        }
        sh.rel_stats.retransmits += 1;
        env.trace.emit_at(
            t.as_ps(),
            src as u32,
            TraceEvent::RetransmitFired { seq, attempt },
        );
        // The retransmission's span is a child of the first attempt's, so
        // every wire attempt hangs off the originating send.
        self.send_frame(env, sh, t, dst, seq, &frag, sent_at, first_span);
        self.arm_timer(env, sh, t, dst);
    }

    /// Resend every unacknowledged frame on the `self -> dst` channel
    /// (go-back-N recovers the whole window) and restart the timer.
    fn resend_window(&mut self, env: &Env, sh: &mut Shared, t: SimTime, dst: usize) {
        let frames: Vec<(u64, Frag, u32, SimTime, u64)> = self
            .chan_tx(env, dst)
            .window
            .iter_mut()
            .map(|f| {
                f.attempts += 1;
                assert!(
                    f.attempts < 10_000,
                    "reliable delivery cannot make progress (seq {} resent {} times)",
                    f.seq,
                    f.attempts
                );
                (f.seq, f.frag.clone(), f.attempts, f.sent_at, f.span)
            })
            .collect();
        for (seq, frag, attempt, sent_at, first_span) in &frames {
            sh.rel_stats.retransmits += 1;
            env.trace.emit_at(
                t.as_ps(),
                self.id as u32,
                TraceEvent::RetransmitFired {
                    seq: *seq,
                    attempt: *attempt,
                },
            );
            self.send_frame(env, sh, t, dst, *seq, frag, *sent_at, *first_span);
        }
        self.arm_timer(env, sh, t, dst);
    }

    /// The `self -> dst` retransmission timer fired: if it is still current
    /// and frames are outstanding, back the timeout off exponentially and
    /// resend the window.
    pub(crate) fn on_rxmit_timer(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        t: SimTime,
        dst: usize,
        gen: u64,
    ) {
        let cap_ps = env.cfg.faults.rto_cap_ps;
        let ch = self.chan_tx(env, dst);
        if gen != ch.timer_gen || ch.window.is_empty() {
            return;
        }
        ch.rto = SimTime::from_ps((ch.rto.as_ps() * 2).min(cap_ps));
        sh.rel_stats.timeouts += 1;
        self.resend_window(env, sh, t, dst);
    }
}
