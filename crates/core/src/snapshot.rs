//! Checkpoints by re-execution: the engine half of `cni-snap`.
//!
//! Each simulated processor is a program suspended at a yield, a
//! compiler-generated future that cannot be serialized. It need not be: the engine is a pure
//! function of (configuration, fault plan, seed), and the golden reports
//! pin that. So a checkpoint records only *where* the run stood, never
//! what the engine held there. [`World::take_snapshot`] returns a small
//! [`Value`] record:
//!
//! | field      | meaning                                                 |
//! |------------|---------------------------------------------------------|
//! | `schema`   | [`SNAPSHOT_SCHEMA`]                                     |
//! | `procs`    | processor count                                         |
//! | `nic_kind` | NIC personality: 0 standard, 1 CNI                      |
//! | `pages`    | shared pages allocated before the run                   |
//! | `events`   | events dispatched at the checkpoint                     |
//! | `faults`   | the fault plan the prefix ran under                     |
//! | `digest`   | CRC-32 of the `RunReport` JSON at that event            |
//!
//! The embedding layer adds the application and full configuration and
//! frames the whole with `cni-snap`'s crash-safe container; this module
//! performs no IO.
//!
//! [`World::resume_run`] starts the same programs as [`World::run`] would
//! and runs the serial loop under the record's fault plan to exactly
//! `events` dispatches. It then compares the report's digest with the
//! stored one: a build or configuration that no longer reproduces the
//! prefix is refused rather than silently resumed. Finally it switches to
//! the world's own fault plan and finishes on the same loop. A resume
//! therefore costs one plain run.
//!
//! ### Forking
//!
//! The world's own plan may differ from the record's: that is a fork.
//! The switch happens after the checkpoint's last event, so the child
//! diverges only in the future. A faulty prefix keeps its injector, PCG
//! stream and counters ([`FaultInjector::set_plan`]); a lossless prefix
//! forked into faults starts a fresh injector there. Forking a faulty
//! prefix into a zero plan is refused: frames already in flight on the
//! reliable channels would have no protocol to complete them.
//!
//! ### Versioning
//!
//! Readers reject any schema but [`SNAPSHOT_SCHEMA`] with an error (never
//! a panic). There is no migration: a checkpoint is a position in a
//! reproducible computation, so an old one is replaced by re-running its
//! configuration.

use crate::report::RunReport;
use crate::world::{Program, World};
use cni_faults::{FaultInjector, FaultPlan};
use cni_nic::NicKind;
use serde::{Deserialize, Map, Serialize, Value};
use std::fmt;

/// Schema version of the record produced by [`World::take_snapshot`].
/// Bump on any change to its fields; readers reject mismatches rather
/// than guessing.
///
/// History: 2 made the reliable channels sparse and added multi-switch
/// fabric fields; 3 made the protocol-jitter generator per node. Both
/// serialized the engine's state tree and a replay journal. 4 records a
/// position to re-execute to instead.
pub const SNAPSHOT_SCHEMA: u64 = 4;

/// Why [`World::resume_run`] refused a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub enum ResumeError {
    /// The record is not a schema-4 checkpoint: another schema, or a
    /// missing or mistyped field.
    Malformed(String),
    /// This world is not set up like the checkpointed one (processor
    /// count, NIC personality, allocations, programs, fault plan).
    Mismatch(String),
    /// The run finished after `ended` events, before the checkpoint's.
    EndedEarly {
        /// The record's event index.
        events: u64,
        /// Events the run dispatched before it ended.
        ended: u64,
    },
    /// The report at the checkpoint hashes differently: this build or
    /// configuration does not reproduce the checkpointed prefix.
    Digest {
        /// The record's event index.
        events: u64,
        /// The digest the checkpoint stored.
        stored: u32,
        /// The digest this run produced at the same event.
        computed: u32,
    },
    /// The tail ran out of events with `live` programs unfinished.
    Unfinished {
        /// Programs still running.
        live: usize,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            ResumeError::Mismatch(m) => f.write_str(m),
            ResumeError::EndedEarly { events, ended } => write!(
                f,
                "the run ended after {ended} events, before the checkpoint's {events}"
            ),
            ResumeError::Digest {
                events,
                stored,
                computed,
            } => write!(
                f,
                "the report at event {events} hashes to {computed:#010x}, the checkpoint \
                 recorded {stored:#010x}: this build does not reproduce the checkpointed run"
            ),
            ResumeError::Unfinished { live } => write!(
                f,
                "resumed simulation ran out of events with {live} programs unfinished"
            ),
        }
    }
}

/// The record's fields, decoded.
struct Record {
    procs: u64,
    nic_kind: u64,
    pages: u64,
    events: u64,
    faults: FaultPlan,
    digest: u32,
}

impl Record {
    fn decode(v: &Value) -> Result<Record, ResumeError> {
        let bad = |m: String| ResumeError::Malformed(m);
        let m = v
            .as_object()
            .ok_or_else(|| bad("the record is not an object".into()))?;
        let field = |k: &str| m.get(k).ok_or_else(|| bad(format!("missing field `{k}`")));
        let uint = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| bad(format!("field `{k}` is not an unsigned integer")))
        };
        let schema = uint("schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(bad(format!(
                "schema v{schema} is not supported (this build reads v{SNAPSHOT_SCHEMA})"
            )));
        }
        let faults = FaultPlan::from_value(field("faults")?)
            .map_err(|e| bad(format!("field `faults`: {e}")))?;
        faults
            .check()
            .map_err(|e| bad(format!("field `faults`: {e}")))?;
        let digest = u32::try_from(uint("digest")?)
            .map_err(|_| bad("field `digest` overflows u32".into()))?;
        Ok(Record {
            procs: uint("procs")?,
            nic_kind: uint("nic_kind")?,
            pages: uint("pages")?,
            events: uint("events")?,
            faults,
            digest,
        })
    }
}

fn nic_kind_code(kind: NicKind) -> u64 {
    match kind {
        NicKind::Standard => 0,
        NicKind::Cni => 1,
    }
}

impl World {
    /// The checkpoint record for the run's current position. Call it from
    /// a checkpoint sink (see [`World::set_checkpoint`]), where the engine
    /// is between dispatches.
    ///
    /// The record is pure data: the embedder decides how to frame and
    /// store it (normally via `cni-snap`'s crash-safe container).
    pub fn take_snapshot(&self) -> Value {
        let cfg = &self.env.cfg;
        let mut m = Map::new();
        m.insert("schema".into(), Value::from(SNAPSHOT_SCHEMA));
        m.insert("procs".into(), Value::from(cfg.procs as u64));
        m.insert("nic_kind".into(), Value::from(nic_kind_code(cfg.nic_kind)));
        m.insert("pages".into(), Value::from(self.next_page as u64));
        m.insert("events".into(), Value::from(self.shared.events_dispatched));
        m.insert("faults".into(), cfg.faults.to_value());
        m.insert("digest".into(), Value::from(self.digest() as u64));
        Value::Object(m)
    }

    /// CRC-32 of the report JSON at the current event: what a
    /// checkpoint's `digest` pins.
    fn digest(&self) -> u32 {
        let json = serde_json::to_string(&self.report()).expect("RunReport serializes");
        cni_atm::crc::crc32(json.as_bytes())
    }

    /// Run under `plan` from the next event on. An existing injector
    /// keeps its PCG stream and counters; a lossless run switched to a
    /// faulty plan starts a fresh one. Callers refuse the one unsound
    /// switch, from a faulty plan to a zero one.
    fn switch_faults(&mut self, plan: FaultPlan) {
        self.env.cfg.faults = plan;
        self.env.reliable = !plan.is_zero();
        self.shared.injector = match self.shared.injector.take() {
            Some(mut inj) => {
                inj.set_plan(plan);
                Some(inj)
            }
            None => self.env.reliable.then(|| FaultInjector::new(plan)),
        };
    }

    /// Resume a checkpoint in this freshly built `World` and run it to
    /// completion.
    ///
    /// The caller must reproduce the checkpointed run's setup: the same
    /// [`crate::Config`] up to the fault plan and engine workers, the same
    /// [`World::alloc`] calls, and the same `programs`. The prefix is
    /// re-executed under the record's fault plan; the tail runs under this
    /// world's. With an unchanged plan the returned [`RunReport`] is
    /// byte-identical to the uninterrupted run's; a changed plan is a fork
    /// (see the module docs).
    ///
    /// Never panics on a malformed record: every defect surfaces as a
    /// [`ResumeError`].
    pub fn resume_run(
        &mut self,
        record: &Value,
        programs: Vec<Program>,
    ) -> Result<RunReport, ResumeError> {
        let mismatch = |m: String| Err(ResumeError::Mismatch(m));
        if self.nodes.iter().any(|n| n.cpu.started) {
            return mismatch("resume_run requires a freshly built World".into());
        }
        let cfg = &self.env.cfg;
        if programs.len() != cfg.procs {
            return mismatch(format!(
                "resume_run got {} programs for {} processors",
                programs.len(),
                cfg.procs
            ));
        }
        if self.env.trace.is_enabled() {
            return mismatch(
                "checkpoint restore does not support tracing; re-run from scratch to trace".into(),
            );
        }
        let r = Record::decode(record)?;
        if r.procs != cfg.procs as u64 {
            return mismatch(format!(
                "snapshot is for {} processors, configuration has {}",
                r.procs, cfg.procs
            ));
        }
        if r.nic_kind != nic_kind_code(cfg.nic_kind) {
            return mismatch("snapshot was taken under a different NIC personality".into());
        }
        if r.pages != self.next_page as u64 {
            return mismatch(format!(
                "snapshot allocated {} shared pages, this run allocated {} \
                 (reproduce the original alloc() calls before resuming)",
                r.pages, self.next_page
            ));
        }
        let own = cfg.faults;
        if !r.faults.is_zero() && own.is_zero() {
            return mismatch(
                "snapshot ran under a fault plan but this plan is empty; \
                 forking a faulty run into a lossless one is not supported"
                    .into(),
            );
        }

        // Re-execute the prefix under the checkpointed run's plan, with a
        // fresh injector: this world's was seeded from its own plan.
        self.shared.injector = None;
        self.switch_faults(r.faults);
        self.start(programs);
        self.event_loop(r.events);
        let ended = self.shared.events_dispatched;
        if ended < r.events {
            return Err(ResumeError::EndedEarly {
                events: r.events,
                ended,
            });
        }
        let computed = self.digest();
        if computed != r.digest {
            return Err(ResumeError::Digest {
                events: r.events,
                stored: r.digest,
                computed,
            });
        }

        self.switch_faults(own);
        self.event_loop(u64::MAX);
        if self.shared.live != 0 {
            return Err(ResumeError::Unfinished {
                live: self.shared.live,
            });
        }
        Ok(self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIELDS: [&str; 7] = [
        "schema", "procs", "nic_kind", "pages", "events", "faults", "digest",
    ];

    /// A well-formed record, to damage one field at a time.
    fn record() -> Map {
        let mut m = Map::new();
        m.insert("schema".into(), Value::from(SNAPSHOT_SCHEMA));
        m.insert("procs".into(), Value::from(4u64));
        m.insert("nic_kind".into(), Value::from(1u64));
        m.insert("pages".into(), Value::from(32u64));
        m.insert("events".into(), Value::from(120u64));
        m.insert("faults".into(), FaultPlan::none().to_value());
        m.insert("digest".into(), Value::from(0xDEAD_BEEFu64));
        m
    }

    /// `record()` with `k` set to `v`.
    fn with(k: &str, v: Value) -> Value {
        let mut m = record();
        m.insert(k.into(), v);
        Value::Object(m)
    }

    fn malformed(v: &Value) -> String {
        match Record::decode(v) {
            Err(ResumeError::Malformed(m)) => m,
            Err(e) => panic!("expected a malformed-record error, got {e:?}"),
            Ok(_) => panic!("a malformed record decoded"),
        }
    }

    #[test]
    fn malformed_values_error_instead_of_panicking() {
        let r = Record::decode(&Value::Object(record())).expect("the record decodes");
        assert_eq!(
            (r.procs, r.nic_kind, r.pages, r.events, r.digest),
            (4, 1, 32, 120, 0xDEAD_BEEF)
        );
        assert!(r.faults.is_zero());

        for junk in [
            Value::Null,
            Value::Bool(true),
            Value::from(7u64),
            Value::Array(vec![]),
        ] {
            assert!(malformed(&junk).contains("not an object"));
        }
        for k in FIELDS {
            let mut m = record();
            m.remove(k);
            let e = malformed(&Value::Object(m));
            assert!(e.contains(&format!("missing field `{k}`")), "{e}");
        }
        // Every field but the plan is an unsigned integer: booleans,
        // strings, negatives and fractions are refused by name.
        for k in FIELDS.iter().filter(|&&k| k != "faults") {
            for v in [
                Value::Bool(false),
                Value::from("4"),
                Value::from(-1i64),
                Value::from(0.5f64),
            ] {
                let e = malformed(&with(k, v));
                assert!(
                    e.contains(&format!("field `{k}` is not an unsigned integer")),
                    "{e}"
                );
            }
        }
        let e = malformed(&with("digest", Value::from(1u64 << 32)));
        assert!(e.contains("overflows u32"), "{e}");
        // A plan of the wrong shape, and one `FaultPlan::check` refuses,
        // error instead of reaching `FaultPlan::validate`'s assert.
        let e = malformed(&with("faults", Value::from(3u64)));
        assert!(e.contains("field `faults`"), "{e}");
        let mut lossy = FaultPlan::none();
        lossy.drop_prob = 1.5;
        let e = malformed(&with("faults", lossy.to_value()));
        assert!(e.contains("drop_prob"), "{e}");
    }
}
