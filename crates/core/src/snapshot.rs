//! Checkpoint/restore for a running [`World`]: the engine half of
//! `cni-snap`.
//!
//! [`World::take_snapshot`] serializes the complete simulation state into
//! a [`Value`] tree — the event queue with its packed `(time, seq)` keys,
//! every per-processor clock and accounting bucket, NIC and fabric timing
//! registers, the Message Cache (CLOCK hands included), go-back-N channel
//! windows with their retransmission timers, the fault injector's PCG
//! stream, and the replay journal (see below). The embedding layer frames
//! the tree with `cni-snap`'s crash-safe length+CRC container; this module
//! performs no IO.
//!
//! [`World::resume_run`] is the inverse: build a fresh `World` from the
//! *same configuration*, re-run the same allocations, then hand it the
//! decoded tree plus the same programs. It replays the journal to rebuild
//! the unserialisable state (co-thread stacks, DSM page maps, shared
//! memory), overwrites every serialized counter, and re-enters the event
//! loop. The contract is bit-identity: run-to-T and
//! run-to-checkpoint-then-resume-to-T produce byte-for-byte identical
//! [`RunReport`]s.
//!
//! ### Why a journal instead of serializing co-threads
//!
//! Each simulated processor is a real OS thread parked at a yield; its
//! stack cannot be serialized. What *can* be recorded is the complete
//! engine→node interaction history: every co-thread resume (with the
//! reply it carried) and every DSM handler invocation, in engine order
//! per node (`JEntry`). Programs are deterministic functions of those
//! interactions, so replaying the journal into fresh co-threads drives
//! them to the exact yield point they occupied at the checkpoint — and
//! re-executes the DSM handlers so protocol state and page contents
//! converge too. Per-node ordering suffices: nodes share nothing but
//! messages, and messages are themselves journal entries.
//!
//! Replay is timing-free (no clock is consulted, no event is scheduled),
//! which is what makes `--fork-at` sound: a forked child may change the
//! fault plan or cost model, and the change affects only the future.
//!
//! ### Compact encoding: the blob table
//!
//! The journal dominates snapshot size, and its bulk is repeated bulk
//! data: page copies in `PageResp` payloads, and write-notice lists in
//! barrier/grant payloads that the protocol *broadcasts* — every
//! receiver journals an identical copy. Rather than spend one boxed
//! [`Value`] per word, bulk sequences are flattened to `u64`s, rendered
//! as canonical run-length strings (`"<count>:<value>"` in minimal
//! lowercase hex, comma-joined, maximal runs), and **interned**: the
//! root's `"blobs"` array stores each distinct string once, in first-use
//! order (deterministic, since encode traversal is), and payload sites
//! store only the index. Interning collapses the broadcast copies to
//! one; decoding validates every blob reference, run length and unit
//! range, so a corrupt index or an implausible length is an error, not
//! an allocation bomb.
//!
//! ### Versioning
//!
//! The tree carries [`SNAPSHOT_SCHEMA`]. Readers reject any other value
//! with an error (never a panic); there is no in-place migration — a
//! snapshot is a cache of a reproducible computation, so the migration
//! path for an old snapshot is to re-run its config to the checkpoint.

use crate::ctx::Reply;
use crate::gbn::{ChanRx, ChanTx, Frag, InFlight, WireMsg};
use crate::node::{Cpu, InboxMsg, JEntry, Node};
use crate::report::RunReport;
use crate::world::{Ev, Program, World};
use cni_atm::state::FabricState;
use cni_atm::{Cell, CellHeader, PduBuf};
use cni_dsm::{LockId, Msg, PageId, Payload, ProcId, VClock};
use cni_faults::{FaultInjector, FaultStats, InjectorSnapshot};
use cni_nic::{NicKind, NicState};
use cni_sim::stats::Histogram;
use cni_sim::{EventQueue, SimTime, SplitMix64};
use cni_trace::MetricsSample;
use serde::{Deserialize, Map, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Schema version of the snapshot value tree produced by
/// [`World::take_snapshot`]. Bump on any change to the layout below;
/// readers reject mismatches rather than guessing.
///
/// History: 2 switched the reliable channels from a dense N×N matrix to
/// sparse `(src, dst, state)` triples and added the multi-switch fabric
/// fields, when hierarchical topologies raised N to 1024. 3 made the
/// protocol-jitter generator a per-node vector, and added the inner
/// fragment and first-transmission time to in-flight `FrameRx` events,
/// when the parallel engine required shard-isolated dispatch state.
pub const SNAPSHOT_SCHEMA: u64 = 3;

// --- encode helpers ---------------------------------------------------------

fn ps(t: SimTime) -> Value {
    Value::from(t.as_ps())
}

fn opt_ps(t: Option<SimTime>) -> Value {
    match t {
        None => Value::Null,
        Some(t) => ps(t),
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Decoded-payload ceiling: a corrupt run length must error out, not
/// OOM the reader. No simulated transfer is remotely this large.
const MAX_RLE_UNITS: u64 = 1 << 27;

/// Append `x` as canonical minimal-width lowercase hex (no leading
/// zeros; `0` encodes as `"0"`).
fn push_hex(s: &mut String, mut x: u64) {
    let mut buf = [0u8; 16];
    let mut i = 16;
    loop {
        i -= 1;
        buf[i] = HEX_DIGITS[(x & 0xf) as usize];
        x >>= 4;
        if x == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[i..]).expect("hex digits are ASCII"));
}

/// A `u64` sequence as run-length-encoded hex: `<len>:<value>` runs
/// joined by `,`, both fields canonical minimal hex.
///
/// The encoding is canonical — maximal runs, minimal hex — so equal
/// payloads always produce identical strings, which is what makes
/// content interning in [`Blobs`] work.
fn runs_to_string(units: impl Iterator<Item = u64>) -> String {
    let mut s = String::new();
    let mut run: Option<(u64, u64)> = None; // (value, count)
    for v in units {
        match &mut run {
            Some((rv, n)) if *rv == v => *n += 1,
            _ => {
                if let Some((rv, n)) = run.take() {
                    push_run(&mut s, rv, n);
                }
                run = Some((v, 1));
            }
        }
    }
    if let Some((rv, n)) = run {
        push_run(&mut s, rv, n);
    }
    s
}

/// Content-interned bulk payloads.
///
/// Bulk payloads — DSM page words, ATM cell bytes — dominate snapshot
/// size, and the *same content* recurs many times in one tree: a page
/// copy appears in the `PageResp` that carried it, in every in-flight
/// cell of its frame, in go-back-N retransmission windows, and in the
/// receiver's journal; the journal then accumulates every transfer of
/// the run. Each distinct run-length string is therefore stored once in
/// the snapshot's `blobs` table and referenced by index everywhere else.
///
/// Ids are assigned in encode-traversal order, which is itself
/// deterministic, so identical states keep producing identical bytes.
/// The map is a `BTreeMap` (D4: no hashed iteration on snapshot paths),
/// though only lookups are performed on it.
#[derive(Default)]
struct Blobs {
    index: std::collections::BTreeMap<String, u64>,
    list: Vec<Value>,
}

impl Blobs {
    /// The reference (`Value::Number` index) for `runs`, interning it on
    /// first sight.
    fn intern(&mut self, runs: String) -> Value {
        if let Some(id) = self.index.get(&runs) {
            return Value::from(*id);
        }
        let id = self.list.len() as u64;
        self.list.push(Value::String(runs.clone()));
        self.index.insert(runs, id);
        Value::from(id)
    }

    /// The `blobs` table for the snapshot root, consuming the store.
    fn into_value(self) -> Value {
        Value::Array(self.list)
    }
}

/// The decode-side view of the `blobs` table.
struct BlobTable<'a>(Vec<&'a str>);

impl BlobTable<'_> {
    /// Parse the root's `blobs` field.
    fn from_root(m: &Map) -> Result<BlobTable<'_>, String> {
        let list = arr(field(m, "blobs")?, "blobs")?
            .iter()
            .map(|v| match v {
                Value::String(s) => Ok(s.as_str()),
                _ => Err("blobs: expected an array of strings".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(BlobTable(list))
    }

    /// Resolve a payload reference to its run-length string.
    fn runs(&self, v: &Value, what: &str) -> Result<&str, String> {
        let id = u64_of(v, what)?;
        self.0.get(id as usize).copied().ok_or_else(|| {
            format!(
                "{what}: blob reference {id} out of range ({})",
                self.0.len()
            )
        })
    }
}

fn push_run(s: &mut String, value: u64, count: u64) {
    if !s.is_empty() {
        s.push(',');
    }
    push_hex(s, count);
    s.push(':');
    push_hex(s, value);
}

/// Inverse of [`runs_to_string`]: the flat `u64` sequence, each unit
/// checked against `max_unit`.
fn runs_from_str(s: &str, what: &str, max_unit: u64) -> Result<Vec<u64>, String> {
    let mut units = Vec::new();
    if s.is_empty() {
        return Ok(units);
    }
    for run in s.split(',') {
        let (n, val) = run
            .split_once(':')
            .ok_or_else(|| format!("{what}: run {run:?} lacks a `:`"))?;
        let n = u64::from_str_radix(n, 16).map_err(|_| format!("{what}: bad run length {n:?}"))?;
        let val =
            u64::from_str_radix(val, 16).map_err(|_| format!("{what}: bad run value {val:?}"))?;
        if val > max_unit {
            return Err(format!("{what}: run value {val:#x} exceeds unit width"));
        }
        if n == 0 || n > MAX_RLE_UNITS || units.len() as u64 + n > MAX_RLE_UNITS {
            return Err(format!("{what}: implausible run length {n:#x}"));
        }
        units.extend(std::iter::repeat_n(val, n as usize));
    }
    Ok(units)
}

/// `&[u64]` page words as an interned blob reference.
fn words_to_value(words: &[u64], b: &mut Blobs) -> Value {
    b.intern(runs_to_string(words.iter().copied()))
}

/// Inverse of [`words_to_value`].
fn words_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Vec<u64>, String> {
    runs_from_str(t.runs(v, what)?, what, u64::MAX)
}

/// `&[u8]` payload bytes as an interned blob reference.
fn bytes_to_value(bytes: &[u8], b: &mut Blobs) -> Value {
    b.intern(runs_to_string(bytes.iter().map(|b| *b as u64)))
}

/// Inverse of [`bytes_to_value`].
fn bytes_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Vec<u8>, String> {
    Ok(runs_from_str(t.runs(v, what)?, what, u8::MAX as u64)?
        .into_iter()
        .map(|b| b as u8)
        .collect())
}

/// `Option<Arc<Vec<u64>>>` payload words: `Null` or a blob reference.
fn data_to_value(d: &Option<Arc<Vec<u64>>>, b: &mut Blobs) -> Value {
    match d {
        None => Value::Null,
        Some(words) => words_to_value(words, b),
    }
}

/// `Reply` as a tagged array. `Reply::Ok` must *not* encode as `Null` —
/// it would collide with `None` inside `Option<Reply>` fields.
fn reply_to_value(r: &Reply, b: &mut Blobs) -> Value {
    match r {
        Reply::Ok => Value::Array(vec![Value::from(0u64)]),
        Reply::Received { src, len, data } => Value::Array(vec![
            Value::from(1u64),
            Value::from(*src as u64),
            Value::from(*len as u64),
            data_to_value(data, b),
        ]),
    }
}

// --- flat payload codec -----------------------------------------------------
//
// The consistency-protocol payloads that carry collections (page copies,
// write-notice lists, vector clocks) flatten to plain `u64` sequences and
// are interned as blobs. Two reasons: the derived tree encoding costs a
// boxed `Value` (and, for structs, repeated field names) per element, and
// barrier/grant messages are broadcast — every receiver journals an
// identical payload, which interning stores exactly once.

fn flatten_vc(vc: &VClock, out: &mut Vec<u64>) {
    out.push(vc.0.len() as u64);
    out.extend(vc.0.iter().map(|x| *x as u64));
}

fn flatten_notices(ns: &[cni_dsm::WriteNotice], out: &mut Vec<u64>) {
    out.push(ns.len() as u64);
    for n in ns {
        out.push(n.writer.0 as u64);
        out.push(n.interval as u64);
        out.push(n.page.0 as u64);
    }
}

/// Bounds-checked cursor over a flattened payload.
struct FlatReader<'a> {
    units: &'a [u64],
    pos: usize,
    what: &'a str,
}

impl FlatReader<'_> {
    fn u64(&mut self) -> Result<u64, String> {
        let v =
            self.units.get(self.pos).copied().ok_or_else(|| {
                format!("{}: flattened payload truncated at {}", self.what, self.pos)
            })?;
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.u64()?)
            .map_err(|_| format!("{}: flattened field overflows u32", self.what))
    }

    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        // Each element consumes at least one unit; anything larger than
        // the remaining input is corrupt.
        if n as usize > self.units.len() - self.pos {
            return Err(format!("{}: implausible flattened length {n}", self.what));
        }
        Ok(n as usize)
    }

    fn vc(&mut self) -> Result<VClock, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(VClock(v))
    }

    fn notices(&mut self) -> Result<Vec<cni_dsm::WriteNotice>, String> {
        let n = self.len()?;
        let mut ns = Vec::with_capacity(n);
        for _ in 0..n {
            ns.push(cni_dsm::WriteNotice {
                writer: ProcId(self.u32()?),
                interval: self.u32()?,
                page: PageId(self.u32()?),
            });
        }
        Ok(ns)
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.units.len() {
            return Err(format!(
                "{}: {} trailing units in flattened payload",
                self.what,
                self.units.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// `Payload` as a tagged array: tag 0 wraps the derived encoding; tags
/// 1–4 are flat fast paths for the collection-carrying variants.
fn payload_to_value(p: &Payload, b: &mut Blobs) -> Value {
    let flat = |tag: u64, units: Vec<u64>, b: &mut Blobs| {
        Value::Array(vec![
            Value::from(tag),
            b.intern(runs_to_string(units.into_iter())),
        ])
    };
    match p {
        Payload::PageResp {
            page,
            version,
            data,
        } => Value::Array(vec![
            Value::from(1u64),
            Value::from(page.0 as u64),
            version.to_value(),
            words_to_value(data, b),
        ]),
        Payload::AcquireGrant {
            lock,
            vc,
            notices,
            then_serve,
        } => {
            let mut u = vec![lock.0 as u64];
            flatten_vc(vc, &mut u);
            flatten_notices(notices, &mut u);
            u.push(then_serve.len() as u64);
            for (p, v) in then_serve {
                u.push(p.0 as u64);
                flatten_vc(v, &mut u);
            }
            flat(2, u, b)
        }
        Payload::BarrierArrive {
            epoch,
            proc,
            vc,
            notices,
        } => {
            let mut u = vec![*epoch as u64, proc.0 as u64];
            flatten_vc(vc, &mut u);
            flatten_notices(notices, &mut u);
            flat(3, u, b)
        }
        Payload::BarrierRelease { epoch, vc, notices } => {
            let mut u = vec![*epoch as u64];
            flatten_vc(vc, &mut u);
            flatten_notices(notices, &mut u);
            flat(4, u, b)
        }
        other => Value::Array(vec![Value::from(0u64), other.to_value()]),
    }
}

fn msg_to_value(m: &Msg, b: &mut Blobs) -> Value {
    Value::Array(vec![
        Value::from(m.src.0 as u64),
        Value::from(m.dst.0 as u64),
        payload_to_value(&m.payload, b),
    ])
}

fn cell_to_value(c: &Cell, b: &mut Blobs) -> Value {
    let bytes = c.payload.as_slice();
    Value::Array(vec![
        Value::from(c.header.vci as u64),
        Value::Bool(c.header.end_of_pdu),
        Value::Bool(c.header.clp),
        bytes_to_value(bytes, b),
    ])
}

fn wire_to_value(w: &WireMsg, b: &mut Blobs) -> Value {
    match w {
        WireMsg::Proto(m) => Value::Array(vec![Value::from(0u64), msg_to_value(m, b)]),
        WireMsg::App {
            src,
            dst,
            len,
            page,
            cacheable,
            data,
        } => Value::Array(vec![
            Value::from(1u64),
            Value::from(*src as u64),
            Value::from(*dst as u64),
            Value::from(*len as u64),
            page.to_value(),
            Value::Bool(*cacheable),
            data_to_value(data, b),
        ]),
    }
}

fn frag_to_value(f: &Frag, b: &mut Blobs) -> Value {
    Value::Array(vec![
        wire_to_value(&f.wire, b),
        Value::from(f.frag as u64),
        Value::from(f.nfrags as u64),
        Value::from(f.bytes as u64),
        Value::from(f.span),
    ])
}

fn inflight_to_value(f: &InFlight, b: &mut Blobs) -> Value {
    Value::Array(vec![
        Value::from(f.seq),
        frag_to_value(&f.frag, b),
        Value::from(f.attempts as u64),
        ps(f.sent_at),
        Value::from(f.span),
    ])
}

/// Events as tagged arrays, tags in declaration order.
fn ev_to_value(ev: &Ev, b: &mut Blobs) -> Value {
    let tag = |t: u64| Value::from(t);
    match ev {
        Ev::Resume(p) => Value::Array(vec![tag(0), Value::from(*p as u64)]),
        Ev::Xmit { src, msg, cause } => Value::Array(vec![
            tag(1),
            Value::from(*src as u64),
            msg_to_value(msg, b),
            Value::from(*cause),
        ]),
        Ev::XmitApp {
            src,
            dst,
            len,
            page,
            cacheable,
            data,
            cause,
        } => Value::Array(vec![
            tag(2),
            Value::from(*src as u64),
            Value::from(*dst as u64),
            Value::from(*len as u64),
            page.to_value(),
            Value::Bool(*cacheable),
            data_to_value(data, b),
            Value::from(*cause),
        ]),
        Ev::Proto { msg, span } => {
            Value::Array(vec![tag(3), msg_to_value(msg, b), Value::from(*span)])
        }
        Ev::App {
            dst,
            src,
            len,
            page,
            cacheable,
            data,
            span,
        } => Value::Array(vec![
            tag(4),
            Value::from(*dst as u64),
            Value::from(*src as u64),
            Value::from(*len as u64),
            page.to_value(),
            Value::Bool(*cacheable),
            data_to_value(data, b),
            Value::from(*span),
        ]),
        Ev::Wake { p, overhead } => {
            Value::Array(vec![tag(5), Value::from(*p as u64), ps(*overhead)])
        }
        Ev::MetricsTick => Value::Array(vec![tag(6)]),
        Ev::FrameRx {
            src,
            dst,
            seq,
            cells,
            span,
            frag,
            sent_at,
        } => Value::Array(vec![
            tag(7),
            Value::from(*src as u64),
            Value::from(*dst as u64),
            Value::from(*seq),
            Value::Array(cells.iter().map(|c| cell_to_value(c, b)).collect()),
            Value::from(*span),
            frag_to_value(frag, b),
            ps(*sent_at),
        ]),
        Ev::AckRx {
            to,
            from,
            ack,
            cells,
            span,
        } => Value::Array(vec![
            tag(8),
            Value::from(*to as u64),
            Value::from(*from as u64),
            Value::from(*ack),
            Value::Array(cells.iter().map(|c| cell_to_value(c, b)).collect()),
            Value::from(*span),
        ]),
        Ev::RxmitTimer { src, dst, gen } => Value::Array(vec![
            tag(9),
            Value::from(*src as u64),
            Value::from(*dst as u64),
            Value::from(*gen),
        ]),
        Ev::RingRelease { dst } => Value::Array(vec![tag(10), Value::from(*dst as u64)]),
    }
}

fn jentry_to_value(e: &JEntry, b: &mut Blobs) -> Value {
    let tag = |t: u64| Value::from(t);
    match e {
        JEntry::Resume(r) => Value::Array(vec![tag(0), reply_to_value(r, b)]),
        JEntry::ReadFault(pg) => Value::Array(vec![tag(1), Value::from(*pg as u64)]),
        JEntry::WriteFault(pg) => Value::Array(vec![tag(2), Value::from(*pg as u64)]),
        JEntry::Acquire(l) => Value::Array(vec![tag(3), Value::from(*l as u64)]),
        JEntry::Release(l) => Value::Array(vec![tag(4), Value::from(*l as u64)]),
        JEntry::Barrier => Value::Array(vec![tag(5)]),
        JEntry::Message(m) => Value::Array(vec![tag(6), msg_to_value(m, b)]),
    }
}

fn cpu_to_value(c: &Cpu, b: &mut Blobs) -> Value {
    let mut m = Map::new();
    m.insert("started".into(), Value::Bool(c.started));
    m.insert("clock".into(), ps(c.clock));
    m.insert("async_busy".into(), ps(c.async_busy));
    m.insert("compute".into(), ps(c.compute));
    m.insert("overhead".into(), ps(c.overhead));
    m.insert("delay".into(), ps(c.delay));
    m.insert("blocked_at".into(), opt_ps(c.blocked_at));
    m.insert("stolen".into(), ps(c.stolen));
    m.insert("done".into(), Value::Bool(c.done));
    m.insert(
        "inbox".into(),
        Value::Array(
            c.inbox
                .iter()
                .map(|(src, len, data)| {
                    Value::Array(vec![
                        Value::from(*src as u64),
                        Value::from(*len as u64),
                        data_to_value(data, b),
                    ])
                })
                .collect(),
        ),
    );
    m.insert("waiting_recv".into(), Value::Bool(c.waiting_recv));
    m.insert(
        "pending_reply".into(),
        match &c.pending_reply {
            None => Value::Null,
            Some(r) => reply_to_value(r, b),
        },
    );
    m.insert("blocked_kind".into(), Value::from(c.blocked_kind as u64));
    m.insert("blocked_detail".into(), Value::from(c.blocked_detail));
    m.insert("last_wake_span".into(), Value::from(c.last_wake_span));
    Value::Object(m)
}

fn chan_tx_to_value(ch: &ChanTx, b: &mut Blobs) -> Value {
    let mut m = Map::new();
    m.insert("next_seq".into(), Value::from(ch.next_seq));
    m.insert("base".into(), Value::from(ch.base));
    m.insert(
        "window".into(),
        Value::Array(ch.window.iter().map(|f| inflight_to_value(f, b)).collect()),
    );
    m.insert(
        "pending".into(),
        Value::Array(ch.pending.iter().map(|f| frag_to_value(f, b)).collect()),
    );
    m.insert("rto".into(), ps(ch.rto));
    m.insert("timer_gen".into(), Value::from(ch.timer_gen));
    m.insert("dup_acks".into(), Value::from(ch.dup_acks as u64));
    Value::Object(m)
}

// --- decode helpers ---------------------------------------------------------
//
// All decoding returns `Result<_, String>`: a malformed tree must surface
// as a diagnostic, never a panic, no matter how it was mangled.

fn obj<'a>(v: &'a Value, what: &str) -> Result<&'a Map, String> {
    match v {
        Value::Object(m) => Ok(m),
        _ => Err(format!("snapshot field `{what}` is not an object")),
    }
}

fn arr<'a>(v: &'a Value, what: &str) -> Result<&'a Vec<Value>, String> {
    match v {
        Value::Array(a) => Ok(a),
        _ => Err(format!("snapshot field `{what}` is not an array")),
    }
}

fn field<'a>(m: &'a Map, k: &str) -> Result<&'a Value, String> {
    m.get(k)
        .ok_or_else(|| format!("snapshot is missing field `{k}`"))
}

fn u64_of(v: &Value, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("snapshot field `{what}` is not an unsigned integer"))
}

fn usize_of(v: &Value, what: &str) -> Result<usize, String> {
    Ok(u64_of(v, what)? as usize)
}

fn u32_of(v: &Value, what: &str) -> Result<u32, String> {
    let n = u64_of(v, what)?;
    u32::try_from(n).map_err(|_| format!("snapshot field `{what}` overflows u32"))
}

fn bool_of(v: &Value, what: &str) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("snapshot field `{what}` is not a bool"))
}

fn time_of(v: &Value, what: &str) -> Result<SimTime, String> {
    Ok(SimTime::from_ps(u64_of(v, what)?))
}

/// Decode a serde-derived type, contextualizing the error.
fn de<T: Deserialize>(v: &Value, what: &str) -> Result<T, String> {
    T::from_value(v).map_err(|e| format!("snapshot field `{what}`: {e}"))
}

fn at<'a>(a: &'a [Value], i: usize, what: &str) -> Result<&'a Value, String> {
    a.get(i)
        .ok_or_else(|| format!("snapshot field `{what}` is truncated (no element {i})"))
}

fn data_from_value(
    v: &Value,
    t: &BlobTable<'_>,
    what: &str,
) -> Result<Option<Arc<Vec<u64>>>, String> {
    match v {
        Value::Null => Ok(None),
        _ => Ok(Some(Arc::new(words_from_value(v, t, what)?))),
    }
}

fn reply_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Reply, String> {
    let a = arr(v, what)?;
    match u64_of(at(a, 0, what)?, what)? {
        0 => Ok(Reply::Ok),
        1 => Ok(Reply::Received {
            src: u32_of(at(a, 1, what)?, what)?,
            len: u32_of(at(a, 2, what)?, what)?,
            data: data_from_value(at(a, 3, what)?, t, what)?,
        }),
        t => Err(format!("snapshot field `{what}` has unknown reply tag {t}")),
    }
}

fn payload_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Payload, String> {
    let a = arr(v, what)?;
    match u64_of(at(a, 0, what)?, what)? {
        0 => de::<Payload>(at(a, 1, what)?, what),
        1 => {
            let page = PageId(u32_of(at(a, 1, what)?, what)?);
            let version: VClock = de(at(a, 2, what)?, what)?;
            let data = words_from_value(at(a, 3, what)?, t, what)?;
            Ok(Payload::PageResp {
                page,
                version,
                data,
            })
        }
        tag @ 2..=4 => {
            let units = words_from_value(at(a, 1, what)?, t, what)?;
            let mut r = FlatReader {
                units: &units,
                pos: 0,
                what,
            };
            let payload = match tag {
                2 => {
                    let lock = LockId(r.u32()?);
                    let vc = r.vc()?;
                    let notices = r.notices()?;
                    let n = r.len()?;
                    let mut then_serve = Vec::with_capacity(n);
                    for _ in 0..n {
                        then_serve.push((ProcId(r.u32()?), r.vc()?));
                    }
                    Payload::AcquireGrant {
                        lock,
                        vc,
                        notices,
                        then_serve,
                    }
                }
                3 => Payload::BarrierArrive {
                    epoch: r.u32()?,
                    proc: ProcId(r.u32()?),
                    vc: r.vc()?,
                    notices: r.notices()?,
                },
                _ => Payload::BarrierRelease {
                    epoch: r.u32()?,
                    vc: r.vc()?,
                    notices: r.notices()?,
                },
            };
            r.finish()?;
            Ok(payload)
        }
        t => Err(format!("snapshot field `{what}`: unknown payload tag {t}")),
    }
}

fn msg_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Msg, String> {
    let a = arr(v, what)?;
    Ok(Msg {
        src: ProcId(u32_of(at(a, 0, what)?, what)?),
        dst: ProcId(u32_of(at(a, 1, what)?, what)?),
        payload: payload_from_value(at(a, 2, what)?, t, what)?,
    })
}

fn cell_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Cell, String> {
    let a = arr(v, what)?;
    let vci = u64_of(at(a, 0, what)?, what)?;
    let vci = u16::try_from(vci).map_err(|_| format!("snapshot field `{what}`: vci overflow"))?;
    let bytes = bytes_from_value(at(a, 3, what)?, t, what)?;
    Ok(Cell {
        header: CellHeader {
            vci,
            end_of_pdu: bool_of(at(a, 1, what)?, what)?,
            clp: bool_of(at(a, 2, what)?, what)?,
        },
        payload: PduBuf::from_vec(bytes),
    })
}

fn wire_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<WireMsg, String> {
    let a = arr(v, what)?;
    match u64_of(at(a, 0, what)?, what)? {
        0 => Ok(WireMsg::Proto(msg_from_value(at(a, 1, what)?, t, what)?)),
        1 => Ok(WireMsg::App {
            src: usize_of(at(a, 1, what)?, what)?,
            dst: usize_of(at(a, 2, what)?, what)?,
            len: u32_of(at(a, 3, what)?, what)?,
            page: de(at(a, 4, what)?, what)?,
            cacheable: bool_of(at(a, 5, what)?, what)?,
            data: data_from_value(at(a, 6, what)?, t, what)?,
        }),
        t => Err(format!(
            "snapshot field `{what}` has unknown wire-message tag {t}"
        )),
    }
}

fn frag_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Frag, String> {
    let a = arr(v, what)?;
    Ok(Frag {
        wire: Arc::new(wire_from_value(at(a, 0, what)?, t, what)?),
        frag: u32_of(at(a, 1, what)?, what)?,
        nfrags: u32_of(at(a, 2, what)?, what)?,
        bytes: u32_of(at(a, 3, what)?, what)?,
        span: u64_of(at(a, 4, what)?, what)?,
    })
}

fn inflight_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<InFlight, String> {
    let a = arr(v, what)?;
    Ok(InFlight {
        seq: u64_of(at(a, 0, what)?, what)?,
        frag: frag_from_value(at(a, 1, what)?, t, what)?,
        attempts: u32_of(at(a, 2, what)?, what)?,
        sent_at: time_of(at(a, 3, what)?, what)?,
        span: u64_of(at(a, 4, what)?, what)?,
    })
}

fn ev_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<Ev, String> {
    let a = arr(v, what)?;
    match u64_of(at(a, 0, what)?, what)? {
        0 => Ok(Ev::Resume(usize_of(at(a, 1, what)?, what)?)),
        1 => Ok(Ev::Xmit {
            src: usize_of(at(a, 1, what)?, what)?,
            msg: msg_from_value(at(a, 2, what)?, t, what)?,
            cause: u64_of(at(a, 3, what)?, what)?,
        }),
        2 => Ok(Ev::XmitApp {
            src: usize_of(at(a, 1, what)?, what)?,
            dst: usize_of(at(a, 2, what)?, what)?,
            len: u32_of(at(a, 3, what)?, what)?,
            page: de(at(a, 4, what)?, what)?,
            cacheable: bool_of(at(a, 5, what)?, what)?,
            data: data_from_value(at(a, 6, what)?, t, what)?,
            cause: u64_of(at(a, 7, what)?, what)?,
        }),
        3 => Ok(Ev::Proto {
            msg: msg_from_value(at(a, 1, what)?, t, what)?,
            span: u64_of(at(a, 2, what)?, what)?,
        }),
        4 => Ok(Ev::App {
            dst: usize_of(at(a, 1, what)?, what)?,
            src: usize_of(at(a, 2, what)?, what)?,
            len: u32_of(at(a, 3, what)?, what)?,
            page: de(at(a, 4, what)?, what)?,
            cacheable: bool_of(at(a, 5, what)?, what)?,
            data: data_from_value(at(a, 6, what)?, t, what)?,
            span: u64_of(at(a, 7, what)?, what)?,
        }),
        5 => Ok(Ev::Wake {
            p: usize_of(at(a, 1, what)?, what)?,
            overhead: time_of(at(a, 2, what)?, what)?,
        }),
        6 => Ok(Ev::MetricsTick),
        7 => Ok(Ev::FrameRx {
            src: usize_of(at(a, 1, what)?, what)?,
            dst: usize_of(at(a, 2, what)?, what)?,
            seq: u64_of(at(a, 3, what)?, what)?,
            cells: arr(at(a, 4, what)?, what)?
                .iter()
                .map(|c| cell_from_value(c, t, what))
                .collect::<Result<_, _>>()?,
            span: u64_of(at(a, 5, what)?, what)?,
            frag: frag_from_value(at(a, 6, what)?, t, what)?,
            sent_at: time_of(at(a, 7, what)?, what)?,
        }),
        8 => Ok(Ev::AckRx {
            to: usize_of(at(a, 1, what)?, what)?,
            from: usize_of(at(a, 2, what)?, what)?,
            ack: u64_of(at(a, 3, what)?, what)?,
            cells: arr(at(a, 4, what)?, what)?
                .iter()
                .map(|c| cell_from_value(c, t, what))
                .collect::<Result<_, _>>()?,
            span: u64_of(at(a, 5, what)?, what)?,
        }),
        9 => Ok(Ev::RxmitTimer {
            src: usize_of(at(a, 1, what)?, what)?,
            dst: usize_of(at(a, 2, what)?, what)?,
            gen: u64_of(at(a, 3, what)?, what)?,
        }),
        10 => Ok(Ev::RingRelease {
            dst: usize_of(at(a, 1, what)?, what)?,
        }),
        t => Err(format!("snapshot field `{what}` has unknown event tag {t}")),
    }
}

fn jentry_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<JEntry, String> {
    let a = arr(v, what)?;
    match u64_of(at(a, 0, what)?, what)? {
        0 => Ok(JEntry::Resume(reply_from_value(at(a, 1, what)?, t, what)?)),
        1 => Ok(JEntry::ReadFault(u32_of(at(a, 1, what)?, what)?)),
        2 => Ok(JEntry::WriteFault(u32_of(at(a, 1, what)?, what)?)),
        3 => Ok(JEntry::Acquire(u32_of(at(a, 1, what)?, what)?)),
        4 => Ok(JEntry::Release(u32_of(at(a, 1, what)?, what)?)),
        5 => Ok(JEntry::Barrier),
        6 => Ok(JEntry::Message(msg_from_value(at(a, 1, what)?, t, what)?)),
        t => Err(format!(
            "snapshot field `{what}` has unknown journal tag {t}"
        )),
    }
}

fn chan_tx_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<ChanTx, String> {
    let m = obj(v, what)?;
    Ok(ChanTx {
        next_seq: u64_of(field(m, "next_seq")?, "next_seq")?,
        base: u64_of(field(m, "base")?, "base")?,
        window: arr(field(m, "window")?, "window")?
            .iter()
            .map(|f| inflight_from_value(f, t, "window"))
            .collect::<Result<VecDeque<_>, _>>()?,
        pending: arr(field(m, "pending")?, "pending")?
            .iter()
            .map(|f| frag_from_value(f, t, "pending"))
            .collect::<Result<VecDeque<_>, _>>()?,
        rto: time_of(field(m, "rto")?, "rto")?,
        timer_gen: u64_of(field(m, "timer_gen")?, "timer_gen")?,
        dup_acks: u32_of(field(m, "dup_acks")?, "dup_acks")?,
    })
}

struct CpuSnap {
    started: bool,
    clock: SimTime,
    async_busy: SimTime,
    compute: SimTime,
    overhead: SimTime,
    delay: SimTime,
    blocked_at: Option<SimTime>,
    stolen: SimTime,
    done: bool,
    inbox: VecDeque<InboxMsg>,
    waiting_recv: bool,
    pending_reply: Option<Reply>,
    blocked_kind: usize,
    blocked_detail: u64,
    last_wake_span: u64,
}

fn cpu_from_value(v: &Value, t: &BlobTable<'_>, what: &str) -> Result<CpuSnap, String> {
    let m = obj(v, what)?;
    let inbox = arr(field(m, "inbox")?, "inbox")?
        .iter()
        .map(|e| {
            let a = arr(e, "inbox entry")?;
            Ok((
                u32_of(at(a, 0, "inbox src")?, "inbox src")?,
                u32_of(at(a, 1, "inbox len")?, "inbox len")?,
                data_from_value(at(a, 2, "inbox data")?, t, "inbox data")?,
            ))
        })
        .collect::<Result<VecDeque<_>, String>>()?;
    let blocked_at = match field(m, "blocked_at")? {
        Value::Null => None,
        v => Some(time_of(v, "blocked_at")?),
    };
    let pending_reply = match field(m, "pending_reply")? {
        Value::Null => None,
        v => Some(reply_from_value(v, t, "pending_reply")?),
    };
    Ok(CpuSnap {
        started: bool_of(field(m, "started")?, "started")?,
        clock: time_of(field(m, "clock")?, "clock")?,
        async_busy: time_of(field(m, "async_busy")?, "async_busy")?,
        compute: time_of(field(m, "compute")?, "compute")?,
        overhead: time_of(field(m, "overhead")?, "overhead")?,
        delay: time_of(field(m, "delay")?, "delay")?,
        blocked_at,
        stolen: time_of(field(m, "stolen")?, "stolen")?,
        done: bool_of(field(m, "done")?, "done")?,
        inbox,
        waiting_recv: bool_of(field(m, "waiting_recv")?, "waiting_recv")?,
        pending_reply,
        blocked_kind: usize_of(field(m, "blocked_kind")?, "blocked_kind")?,
        blocked_detail: u64_of(field(m, "blocked_detail")?, "blocked_detail")?,
        last_wake_span: u64_of(field(m, "last_wake_span")?, "last_wake_span")?,
    })
}

// --- the World surface ------------------------------------------------------

impl World {
    /// Serialize the complete simulation state into a schema-versioned
    /// [`Value`] tree. Requires [`World::enable_journal`]; call it from a
    /// checkpoint sink (see [`World::set_checkpoint`]), where the engine
    /// is quiescent — every co-thread parked at a yield, no event mid-
    /// dispatch.
    ///
    /// The tree is pure data: the embedder decides how to frame and store
    /// it (normally via `cni-snap`'s crash-safe container).
    pub fn take_snapshot(&self) -> Value {
        let journal: Vec<&Vec<JEntry>> = self
            .nodes
            .iter()
            .map(|n| {
                n.journal
                    .as_ref()
                    .expect("take_snapshot requires World::enable_journal")
            })
            .collect();
        let (cfg, sh, nodes) = (&self.env.cfg, &self.shared, &self.nodes);
        let mut b = Blobs::default();
        let mut m = Map::new();
        m.insert("schema".into(), Value::from(SNAPSHOT_SCHEMA));
        m.insert("procs".into(), Value::from(cfg.procs as u64));
        m.insert(
            "nic_kind".into(),
            Value::from(match cfg.nic_kind {
                NicKind::Standard => 0u64,
                NicKind::Cni => 1u64,
            }),
        );
        m.insert("next_page".into(), Value::from(self.next_page as u64));
        m.insert(
            "events_dispatched".into(),
            Value::from(sh.events_dispatched),
        );

        let mut q = Map::new();
        q.insert("now".into(), ps(sh.q.now()));
        q.insert("next_seq".into(), Value::from(sh.q.next_seq()));
        q.insert(
            "entries".into(),
            Value::Array(
                sh.q.snapshot_entries()
                    .map(|(t, seq, ev)| {
                        Value::Array(vec![ps(t), Value::from(seq), ev_to_value(ev, &mut b)])
                    })
                    .collect(),
            ),
        );
        m.insert("queue".into(), Value::Object(q));

        m.insert(
            "cpus".into(),
            Value::Array(nodes.iter().map(|n| cpu_to_value(&n.cpu, &mut b)).collect()),
        );
        m.insert("live".into(), Value::from(sh.live as u64));
        m.insert("proto_messages".into(), Value::from(sh.proto_messages));
        m.insert("msg_kinds".into(), sh.msg_kinds.to_value());
        m.insert(
            "wait_stats".into(),
            Value::Array(
                sh.wait_stats
                    .iter()
                    .map(|(t, n)| Value::Array(vec![ps(*t), Value::from(*n)]))
                    .collect(),
            ),
        );
        m.insert(
            "jitter".into(),
            Value::Array(
                nodes
                    .iter()
                    .map(|n| Value::from(n.jitter.state()))
                    .collect(),
            ),
        );
        m.insert("next_span".into(), Value::from(sh.next_span));
        m.insert("latency".into(), sh.latency.to_value());
        m.insert("fabric".into(), sh.fabric.snapshot_state().to_value());
        m.insert(
            "nics".into(),
            Value::Array(
                nodes
                    .iter()
                    .map(|n| n.nic.snapshot_state().to_value())
                    .collect(),
            ),
        );
        m.insert(
            "injector".into(),
            match &sh.injector {
                None => Value::Null,
                Some(inj) => inj.snapshot().to_value(),
            },
        );
        // Sparse triples in BTreeMap (key) order: only channels a faulty
        // run actually materialised are recorded, so lossless snapshots
        // carry none and 1024-node snapshots stay small.
        m.insert(
            "rel_tx".into(),
            Value::Array(
                nodes
                    .iter()
                    .flat_map(|n| n.rel_tx.iter().map(move |(&dst, ch)| (n.id, dst, ch)))
                    .map(|(src, dst, ch)| {
                        Value::Array(vec![
                            Value::from(src as u64),
                            Value::from(dst as u64),
                            chan_tx_to_value(ch, &mut b),
                        ])
                    })
                    .collect(),
            ),
        );
        m.insert(
            "rel_rx".into(),
            Value::Array(
                nodes
                    .iter()
                    .flat_map(|n| n.rel_rx.iter().map(move |(&src, ch)| (n.id, src, ch)))
                    .map(|(dst, src, ch)| {
                        Value::Array(vec![
                            Value::from(dst as u64),
                            Value::from(src as u64),
                            Value::from(ch.expected),
                        ])
                    })
                    .collect(),
            ),
        );
        m.insert("rel_stats".into(), sh.rel_stats.to_value());
        let per_node = |f: fn(&Node) -> Value| Value::Array(nodes.iter().map(f).collect());
        m.insert("ring_used".into(), per_node(|n| n.ring_used.to_value()));
        m.insert("ring_hw".into(), per_node(|n| n.ring_hw.to_value()));
        m.insert("util_prev".into(), per_node(|n| n.util_prev.to_value()));
        m.insert(
            "metrics_prev".into(),
            per_node(|n| n.metrics_prev.to_value()),
        );
        m.insert(
            "journal".into(),
            Value::Array(
                journal
                    .iter()
                    .map(|node| {
                        Value::Array(node.iter().map(|e| jentry_to_value(e, &mut b)).collect())
                    })
                    .collect(),
            ),
        );
        m.insert("blobs".into(), b.into_value());
        Value::Object(m)
    }

    /// Restore a checkpoint into this freshly built `World` and run it to
    /// completion.
    ///
    /// The caller must reproduce the checkpointed run's setup exactly
    /// before calling: same [`crate::Config`] (the fault plan and cost
    /// model *may* differ for a fork — see below), same
    /// [`World::alloc`] calls, and the same `programs`. The snapshot
    /// supplies everything else. On success the returned [`RunReport`] is
    /// byte-identical to the report the uninterrupted run produces.
    ///
    /// Forking: a child may change the fault plan (e.g. inject a brownout
    /// after the checkpoint) — the injector's RNG stream is restored so
    /// an *unchanged* plan reproduces the parent exactly, while a changed
    /// plan diverges only after the checkpoint. The one rejected
    /// combination is resuming a faulty snapshot under a zero-fault plan:
    /// frames already in flight on the reliable channels would have no
    /// protocol to complete them.
    ///
    /// Never panics on malformed input: every structural defect in
    /// `state` surfaces as `Err`.
    pub fn resume_run(
        &mut self,
        state: &Value,
        programs: Vec<Program>,
    ) -> Result<RunReport, String> {
        if self.nodes.iter().any(|n| n.cpu.started) {
            return Err("resume_run requires a freshly built World".into());
        }
        let cfg = &self.env.cfg;
        if programs.len() != cfg.procs {
            return Err(format!(
                "resume_run got {} programs for {} processors",
                programs.len(),
                cfg.procs
            ));
        }
        if self.env.trace.is_enabled() {
            return Err(
                "checkpoint restore does not support tracing; re-run from scratch to trace".into(),
            );
        }
        let m = obj(state, "<root>")?;
        let schema = u64_of(field(m, "schema")?, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "snapshot schema v{schema} is not supported (this build reads v{SNAPSHOT_SCHEMA})"
            ));
        }
        let procs = usize_of(field(m, "procs")?, "procs")?;
        if procs != cfg.procs {
            return Err(format!(
                "snapshot is for {procs} processors, configuration has {}",
                cfg.procs
            ));
        }
        let kind = u64_of(field(m, "nic_kind")?, "nic_kind")?;
        let want = match cfg.nic_kind {
            NicKind::Standard => 0u64,
            NicKind::Cni => 1u64,
        };
        if kind != want {
            return Err("snapshot was taken under a different NIC personality".into());
        }
        let next_page = u32_of(field(m, "next_page")?, "next_page")?;
        if next_page != self.next_page {
            return Err(format!(
                "snapshot allocated {next_page} shared pages, this run allocated {} \
                 (reproduce the original alloc() calls before resuming)",
                self.next_page
            ));
        }

        // Decode everything fallible *before* touching engine state, so a
        // malformed snapshot cannot leave the world half-restored.
        let blobs = BlobTable::from_root(m)?;
        let journal: Vec<Vec<JEntry>> = arr(field(m, "journal")?, "journal")?
            .iter()
            .map(|node| {
                arr(node, "journal node")?
                    .iter()
                    .map(|e| jentry_from_value(e, &blobs, "journal"))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        if journal.len() != procs {
            return Err(format!(
                "snapshot journal covers {} nodes, expected {procs}",
                journal.len()
            ));
        }
        let qm = obj(field(m, "queue")?, "queue")?;
        let q_now = time_of(field(qm, "now")?, "queue.now")?;
        let q_next_seq = u64_of(field(qm, "next_seq")?, "queue.next_seq")?;
        let q_entries: Vec<(SimTime, u64, Ev)> = arr(field(qm, "entries")?, "queue.entries")?
            .iter()
            .map(|e| {
                let a = arr(e, "queue entry")?;
                Ok((
                    time_of(at(a, 0, "queue entry")?, "queue entry time")?,
                    u64_of(at(a, 1, "queue entry")?, "queue entry seq")?,
                    ev_from_value(at(a, 2, "queue entry")?, &blobs, "queue entry event")?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let cpu_snaps: Vec<CpuSnap> = arr(field(m, "cpus")?, "cpus")?
            .iter()
            .map(|c| cpu_from_value(c, &blobs, "cpus"))
            .collect::<Result<_, _>>()?;
        if cpu_snaps.len() != procs {
            return Err(format!(
                "snapshot has {} processor records, expected {procs}",
                cpu_snaps.len()
            ));
        }
        let live = usize_of(field(m, "live")?, "live")?;
        let proto_messages = u64_of(field(m, "proto_messages")?, "proto_messages")?;
        let msg_kinds: [u64; 9] = de(field(m, "msg_kinds")?, "msg_kinds")?;
        let ws_raw = arr(field(m, "wait_stats")?, "wait_stats")?;
        if ws_raw.len() != 4 {
            return Err(format!(
                "snapshot wait_stats has {} kinds, expected 4",
                ws_raw.len()
            ));
        }
        let mut wait_stats = [(SimTime::ZERO, 0u64); 4];
        for (slot, v) in wait_stats.iter_mut().zip(ws_raw) {
            let a = arr(v, "wait_stats entry")?;
            *slot = (
                time_of(at(a, 0, "wait_stats")?, "wait_stats time")?,
                u64_of(at(a, 1, "wait_stats")?, "wait_stats count")?,
            );
        }
        let jitter_states: Vec<u64> = arr(field(m, "jitter")?, "jitter")?
            .iter()
            .map(|v| u64_of(v, "jitter"))
            .collect::<Result<_, _>>()?;
        if jitter_states.len() != procs {
            return Err(format!(
                "snapshot has {} jitter streams, expected {procs}",
                jitter_states.len()
            ));
        }
        let next_span = u64_of(field(m, "next_span")?, "next_span")?;
        let latency: Vec<Histogram> = de(field(m, "latency")?, "latency")?;
        if latency.len() != 10 {
            return Err(format!(
                "snapshot has {} latency histograms, expected 10",
                latency.len()
            ));
        }
        let fabric: FabricState = de(field(m, "fabric")?, "fabric")?;
        let nic_states: Vec<NicState> = de(field(m, "nics")?, "nics")?;
        if nic_states.len() != procs {
            return Err(format!(
                "snapshot has {} NIC records, expected {procs}",
                nic_states.len()
            ));
        }
        let inj_snap: Option<InjectorSnapshot> = match field(m, "injector")? {
            Value::Null => None,
            v => Some(de(v, "injector")?),
        };
        if inj_snap.is_some() && cfg.faults.is_zero() {
            return Err(
                "snapshot carries fault-injector state but the fault plan is empty; \
                 forking a faulty run into a lossless one is not supported"
                    .into(),
            );
        }
        let mut rel_tx: Vec<BTreeMap<u32, ChanTx>> = (0..procs).map(|_| BTreeMap::new()).collect();
        for e in arr(field(m, "rel_tx")?, "rel_tx")? {
            let t = arr(e, "rel_tx entry")?;
            let src = u64_of(at(t, 0, "rel_tx")?, "rel_tx src")?;
            let dst = u64_of(at(t, 1, "rel_tx")?, "rel_tx dst")?;
            if src >= procs as u64 || dst >= procs as u64 {
                return Err("snapshot reliable-channel endpoint out of range".into());
            }
            let ch = chan_tx_from_value(at(t, 2, "rel_tx")?, &blobs, "rel_tx")?;
            if rel_tx[src as usize].insert(dst as u32, ch).is_some() {
                return Err("snapshot repeats a reliable-channel (src, dst) pair".into());
            }
        }
        let mut rel_rx: Vec<BTreeMap<u32, ChanRx>> = (0..procs).map(|_| BTreeMap::new()).collect();
        for e in arr(field(m, "rel_rx")?, "rel_rx")? {
            let t = arr(e, "rel_rx entry")?;
            let dst = u64_of(at(t, 0, "rel_rx")?, "rel_rx dst")?;
            let src = u64_of(at(t, 1, "rel_rx")?, "rel_rx src")?;
            if src >= procs as u64 || dst >= procs as u64 {
                return Err("snapshot reliable-channel endpoint out of range".into());
            }
            let expected = u64_of(at(t, 2, "rel_rx")?, "rel_rx expected")?;
            if rel_rx[dst as usize]
                .insert(src as u32, ChanRx { expected })
                .is_some()
            {
                return Err("snapshot repeats a reliable-channel (dst, src) pair".into());
            }
        }
        let rel_stats: FaultStats = de(field(m, "rel_stats")?, "rel_stats")?;
        let ring_used: Vec<u32> = de(field(m, "ring_used")?, "ring_used")?;
        let ring_hw: Vec<u32> = de(field(m, "ring_hw")?, "ring_hw")?;
        let util_prev: Vec<(u64, u64, u64)> = de(field(m, "util_prev")?, "util_prev")?;
        let metrics_prev: Vec<MetricsSample> = de(field(m, "metrics_prev")?, "metrics_prev")?;
        if ring_used.len() != procs || ring_hw.len() != procs {
            return Err("snapshot ring occupancy does not match processor count".into());
        }
        if util_prev.len() != procs || metrics_prev.len() != procs {
            return Err("snapshot metrics baselines do not match processor count".into());
        }
        let events_dispatched = u64_of(field(m, "events_dispatched")?, "events_dispatched")?;

        // --- rebuild the unserialisable state by journal replay ---------
        // The journal field stays `None` during replay so the replayed
        // interactions are not re-recorded; the decoded journal (which
        // already contains them) is installed afterwards.
        for node in self.nodes.iter_mut() {
            node.journal = None;
        }
        self.spawn_threads(programs);
        for (node, entries) in self.nodes.iter_mut().zip(&journal) {
            node.replay(entries)?;
        }
        for (p, (node, s)) in self.nodes.iter().zip(&cpu_snaps).enumerate() {
            if node.cpu.started != s.started {
                return Err(format!(
                    "journal replay left processor {p} {}, but the snapshot says {} \
                     (were the original programs passed?)",
                    if node.cpu.started {
                        "started"
                    } else {
                        "unstarted"
                    },
                    if s.started { "started" } else { "unstarted" },
                ));
            }
            if node.cpu.thread.is_none() != s.done {
                return Err(format!(
                    "journal replay left processor {p}'s thread inconsistent with its \
                     done flag (corrupt journal?)"
                ));
            }
        }

        // --- overwrite the serialized state ------------------------------
        for (node, s) in self.nodes.iter_mut().zip(cpu_snaps) {
            let cpu = &mut node.cpu;
            cpu.clock = s.clock;
            cpu.async_busy = s.async_busy;
            cpu.compute = s.compute;
            cpu.overhead = s.overhead;
            cpu.delay = s.delay;
            cpu.blocked_at = s.blocked_at;
            cpu.stolen = s.stolen;
            cpu.done = s.done;
            cpu.inbox = s.inbox;
            cpu.waiting_recv = s.waiting_recv;
            cpu.pending_reply = s.pending_reply;
            cpu.blocked_kind = s.blocked_kind;
            cpu.blocked_detail = s.blocked_detail;
            cpu.last_wake_span = s.last_wake_span;
        }
        let sh = &mut self.shared;
        sh.q = EventQueue::from_snapshot(q_now, q_next_seq, q_entries)
            .map_err(|e| format!("snapshot event queue rejected: {e}"))?;
        sh.fabric
            .restore_state(&fabric)
            .map_err(|e| format!("snapshot fabric rejected: {e}"))?;
        if let Some(s) = inj_snap {
            // Restore the injector's RNG stream under the *current* plan:
            // an unchanged plan reproduces the parent draw-for-draw, a
            // forked plan diverges only from here on.
            sh.injector = Some(FaultInjector::from_snapshot(self.env.cfg.faults, s));
        }
        sh.rel_stats = rel_stats;
        sh.live = live;
        sh.proto_messages = proto_messages;
        sh.msg_kinds = msg_kinds;
        sh.wait_stats = wait_stats;
        sh.next_span = next_span;
        sh.latency = latency.into_boxed_slice();
        sh.events_dispatched = events_dispatched;
        // Every per-node vector was checked to hold `procs` entries above.
        for (p, (node, j)) in self.nodes.iter_mut().zip(journal).enumerate() {
            node.journal = Some(j);
            node.nic
                .restore_state(&nic_states[p])
                .map_err(|e| format!("snapshot NIC state rejected: {e}"))?;
            node.rel_tx = std::mem::take(&mut rel_tx[p]);
            node.rel_rx = std::mem::take(&mut rel_rx[p]);
            node.ring_used = ring_used[p];
            node.ring_hw = ring_hw[p];
            node.util_prev = util_prev[p];
            node.metrics_prev = metrics_prev[p];
            node.jitter = SplitMix64::from_state(jitter_states[p]);
        }

        // --- run the tail -------------------------------------------------
        self.run_loop();
        if self.shared.live != 0 {
            return Err(format!(
                "resumed simulation ran out of events with {} programs unfinished",
                self.shared.live
            ));
        }
        Ok(self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_dsm::PageId;
    use proptest::prelude::*;

    fn arb_payload() -> impl Strategy<Value = Payload> {
        prop_oneof![
            (any::<u32>(), any::<u32>()).prop_map(|(page, req)| Payload::PageReq {
                page: PageId(page),
                requester: ProcId(req),
            }),
            (any::<u32>(), collection::vec(any::<u64>(), 0..16)).prop_map(|(page, data)| {
                Payload::PageResp {
                    page: PageId(page),
                    version: cni_dsm::types::VClock(vec![1, 2, 3]),
                    data,
                }
            }),
        ]
    }

    fn arb_data() -> impl Strategy<Value = Option<Arc<Vec<u64>>>> {
        (any::<bool>(), collection::vec(any::<u64>(), 0..8))
            .prop_map(|(some, words)| some.then(|| Arc::new(words)))
    }

    fn arb_wire() -> impl Strategy<Value = WireMsg> {
        prop_oneof![
            (any::<u32>(), any::<u32>(), arb_payload()).prop_map(|(s, d, payload)| {
                WireMsg::Proto(Msg {
                    src: ProcId(s),
                    dst: ProcId(d),
                    payload,
                })
            }),
            (
                0usize..64,
                0usize..64,
                any::<u32>(),
                (any::<bool>(), any::<u64>()).prop_map(|(s, v)| s.then_some(v)),
                any::<bool>(),
                arb_data(),
            )
                .prop_map(|(src, dst, len, page, cacheable, data)| WireMsg::App {
                    src,
                    dst,
                    len,
                    page,
                    cacheable,
                    data,
                }),
        ]
    }

    fn arb_frag() -> impl Strategy<Value = Frag> {
        (arb_wire(), 0u32..8, 1u32..9, 1u32..4096, any::<u64>()).prop_map(
            |(wire, frag, nfrags, bytes, span)| Frag {
                wire: Arc::new(wire),
                frag,
                nfrags,
                bytes,
                span,
            },
        )
    }

    fn arb_inflight() -> impl Strategy<Value = InFlight> {
        (
            arb_frag(),
            any::<u64>(),
            1u32..12,
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(frag, seq, attempts, sent_ps, span)| InFlight {
                seq,
                frag,
                attempts,
                sent_at: SimTime::from_ps(sent_ps),
                span,
            })
    }

    fn arb_chan_tx() -> impl Strategy<Value = ChanTx> {
        (
            (any::<u64>(), any::<u64>()),
            collection::vec(arb_inflight(), 0..6),
            collection::vec(arb_frag(), 0..6),
            (1u64..u64::MAX / 4, any::<u64>(), 0u32..4),
        )
            .prop_map(
                |((next_seq, base), window, pending, (rto_ps, timer_gen, dup_acks))| ChanTx {
                    next_seq,
                    base,
                    window: VecDeque::from(window),
                    pending: VecDeque::from(pending),
                    rto: SimTime::from_ps(rto_ps),
                    timer_gen,
                    dup_acks,
                },
            )
    }

    proptest! {
        /// Go-back-N transmit state survives encode/decode: sequence
        /// numbers, in-flight frames (with their retransmission timers:
        /// `sent_at`, `attempts`, channel `rto` and `timer_gen`) and
        /// queued fragments all reproduce exactly. Canonical-form check:
        /// decode-then-re-encode is the identity on the value tree.
        #[test]
        fn chan_tx_round_trips(ch in arb_chan_tx()) {
            let mut b = Blobs::default();
            let v = chan_tx_to_value(&ch, &mut b);
            let strings: Vec<String> = b
                .list
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect();
            let t = BlobTable(strings.iter().map(|s| s.as_str()).collect());
            let back = chan_tx_from_value(&v, &t, "t").unwrap();
            prop_assert_eq!(back.next_seq, ch.next_seq);
            prop_assert_eq!(back.base, ch.base);
            prop_assert_eq!(back.rto, ch.rto);
            prop_assert_eq!(back.timer_gen, ch.timer_gen);
            prop_assert_eq!(back.dup_acks, ch.dup_acks);
            prop_assert_eq!(back.window.len(), ch.window.len());
            for (a, b) in back.window.iter().zip(&ch.window) {
                prop_assert_eq!(a.seq, b.seq);
                prop_assert_eq!(a.attempts, b.attempts);
                prop_assert_eq!(a.sent_at, b.sent_at);
                prop_assert_eq!(a.span, b.span);
            }
            // Re-encoding from scratch reproduces both the tree and the
            // blob table: interning is deterministic.
            let mut b2 = Blobs::default();
            prop_assert_eq!(chan_tx_to_value(&back, &mut b2), v);
            prop_assert_eq!(Value::Array(b2.list), Value::Array(b.list));
        }

        /// A populated event queue survives the snapshot encoding: the
        /// restored queue pops the identical `(time, seq, event)` stream.
        #[test]
        fn event_queue_of_events_round_trips(
            evs in collection::vec((any::<u64>(), 0usize..8, any::<u64>()), 1..24)
        ) {
            let mut q: EventQueue<Ev> = EventQueue::new();
            for (t_ps, p, gen) in &evs {
                q.schedule_at(
                    SimTime::from_ps(*t_ps),
                    Ev::RxmitTimer { src: *p, dst: (*p + 1) % 8, gen: *gen },
                );
            }
            // Encode exactly as take_snapshot does...
            let mut b = Blobs::default();
            let entries: Vec<Value> = q
                .snapshot_entries()
                .map(|(t, seq, ev)| {
                    Value::Array(vec![ps(t), Value::from(seq), ev_to_value(ev, &mut b)])
                })
                .collect();
            let strings: Vec<String> = b
                .list
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect();
            let table = BlobTable(strings.iter().map(|s| s.as_str()).collect());
            // ...decode exactly as resume_run does.
            let decoded: Vec<(SimTime, u64, Ev)> = entries
                .iter()
                .map(|e| {
                    let a = arr(e, "e").unwrap();
                    (
                        time_of(&a[0], "t").unwrap(),
                        u64_of(&a[1], "s").unwrap(),
                        ev_from_value(&a[2], &table, "ev").unwrap(),
                    )
                })
                .collect();
            let mut restored =
                EventQueue::from_snapshot(q.now(), q.next_seq(), decoded).unwrap();
            loop {
                match (q.pop(), restored.pop()) {
                    (None, None) => break,
                    (Some((ta, ea)), Some((tb, eb))) => {
                        prop_assert_eq!(ta, tb);
                        let mut ba = Blobs::default();
                        let mut bb = Blobs::default();
                        prop_assert_eq!(ev_to_value(&ea, &mut ba), ev_to_value(&eb, &mut bb));
                    }
                    _ => prop_assert!(false, "pop streams diverged in length"),
                }
            }
        }
    }

    #[test]
    fn reply_ok_is_not_null() {
        // `Reply::Ok` inside `Option<Reply>` must stay distinguishable
        // from `None`.
        let mut b = Blobs::default();
        assert_ne!(reply_to_value(&Reply::Ok, &mut b), Value::Null);
        let some_ok = reply_to_value(&Reply::Ok, &mut b);
        assert_eq!(
            reply_from_value(&some_ok, &BlobTable(vec![]), "t").unwrap(),
            Reply::Ok
        );
    }

    #[test]
    fn malformed_values_error_instead_of_panicking() {
        let junk = [
            Value::Null,
            Value::Bool(true),
            Value::from(7u64),
            Value::Array(vec![]),
            Value::Array(vec![Value::from(99u64)]),
            Value::Array(vec![Value::from(0u64)]), // tag without operands
            Value::Object(Map::new()),
        ];
        let t = BlobTable(vec![]);
        for v in &junk {
            assert!(ev_from_value(v, &t, "t").is_err());
            let _ = jentry_from_value(v, &t, "t");
            let _ = reply_from_value(v, &t, "t");
            let _ = wire_from_value(v, &t, "t");
            let _ = frag_from_value(v, &t, "t");
            let _ = inflight_from_value(v, &t, "t");
            let _ = cell_from_value(v, &t, "t");
            let _ = msg_from_value(v, &t, "t");
            let _ = chan_tx_from_value(v, &t, "t");
            let _ = cpu_from_value(v, &t, "t");
        }
        // Truncated event operands must error, not index out of bounds.
        let truncated = Value::Array(vec![Value::from(1u64)]);
        assert!(ev_from_value(&truncated, &t, "t").is_err());
        // A payload reference to a missing blob is an error, not a panic.
        let dangling = Value::Array(vec![
            Value::from(7u64), // FrameRx
            Value::from(0u64),
            Value::from(1u64),
            Value::from(0u64),
            Value::Array(vec![Value::Array(vec![
                Value::from(1u64),
                Value::Bool(false),
                Value::Bool(false),
                Value::from(99u64), // blob id 99 does not exist
            ])]),
            Value::from(0u64),
        ]);
        let err = ev_from_value(&dangling, &t, "t").err().unwrap();
        assert!(err.contains("blob reference 99 out of range"), "{err}");
        // Unknown tags are rejected by name.
        let unknown = Value::Array(vec![Value::from(42u64)]);
        let err = ev_from_value(&unknown, &t, "t").err().unwrap();
        assert!(err.contains("unknown event tag 42"), "{err}");
    }
}
