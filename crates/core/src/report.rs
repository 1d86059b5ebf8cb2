//! Run reports: the numbers the paper's tables and figures are made of.

use cni_dsm::DsmStats;
use cni_faults::FaultStats;
use cni_nic::msgcache::MsgCacheStats;
use cni_nic::stats::NicStats;
use cni_sim::{Clock, Histogram, SimTime};
use cni_trace::TraceSummary;
use serde::{Deserialize, Serialize};

/// Schema version of [`RunReport`]'s serialized form. Bumped whenever a
/// field is added, removed or changes meaning, so archived `--json` output
/// is self-describing.
///
/// History:
/// * **2** — first versioned schema: added `version` and the per-kind
///   `latency` summaries.
/// * **3** — added the `faults` record (fault injection and
///   retransmission counters).
/// * **4** — added `latency_hist`, the raw per-kind latency histograms,
///   so batch runs can merge distributions across runs
///   (`cni-batch`'s `BatchReport`).
/// * **5** — added `stages`, the span-derived per-message stage
///   decomposition (`--obs` runs), and the span accounting counters
///   inside `trace` (`spans_opened` / `spans_closed` / `span_drops`).
/// * **6** — widened the per-NIC stats with the collective offload
///   counters (`coll_combines` / `coll_forwards`), added when barrier
///   combining moved onto the NIC processor.
///
/// Reports from any version in [`OLDEST_PARSEABLE_VERSION`]`..=`
/// [`REPORT_VERSION`] still parse — see [`RunReport::parse_json`].
pub const REPORT_VERSION: u32 = 6;

/// The oldest archived report schema [`RunReport::parse_json`] accepts.
pub const OLDEST_PARSEABLE_VERSION: u32 = 2;

/// Raw one-way latency histogram of one wire message kind, in
/// nanoseconds (the unit the engine records; [`KindLatency`] divides by
/// 10³ for its microsecond summaries). Unlike the summarised
/// [`KindLatency`], histograms are mergeable across runs (bucket-wise),
/// which is what batch aggregation needs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct KindHistogram {
    /// The wire kind byte (`0xD0..=0xD8` protocol, `0xA0` application).
    pub kind: u8,
    /// Log-2 bucketed latency distribution (values in whole
    /// nanoseconds). Empty-histogram percentiles are 0 by
    /// [`Histogram::percentile`]'s documented contract.
    pub hist: Histogram,
}

/// Per-processor time breakdown, in virtual time.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ProcTimes {
    /// Application computation.
    pub compute: SimTime,
    /// Synchronisation overhead: cycles the CPU spent executing protocol,
    /// kernel, interrupt, poll and flush code.
    pub overhead: SimTime,
    /// Synchronisation delay: time stalled waiting for remote pages, locks
    /// and barriers.
    pub delay: SimTime,
    /// Completion time of this processor.
    pub total: SimTime,
}

/// Latency distribution of one wire message kind over a run: from the
/// moment the sender's NIC takes the message to the last cell's arrival at
/// the receiving board.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct KindLatency {
    /// The wire kind byte (`0xD0..=0xD8` protocol, `0xA0` application).
    pub kind: u8,
    /// Messages of this kind transported.
    pub count: u64,
    /// Mean one-way latency in microseconds.
    pub mean_us: f64,
    /// Median (50th percentile) one-way latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile one-way latency in microseconds.
    pub p99_us: f64,
}

/// Human-readable name of a wire kind byte (see [`KindLatency::kind`]).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        0xD0 => "acquire-req",
        0xD1 => "acquire-fwd",
        0xD2 => "acquire-grant",
        0xD3 => "barrier-arrive",
        0xD4 => "barrier-release",
        0xD5 => "page-req",
        0xD6 => "page-resp",
        0xD7 => "diff-req",
        0xD8 => "diff-resp",
        0xA0 => "app",
        _ => "unknown",
    }
}

/// Everything measured in one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version of this report ([`REPORT_VERSION`]).
    pub version: u32,
    /// Completion time of the whole run (max over processors).
    pub wall: SimTime,
    /// Per-processor breakdowns.
    pub procs: Vec<ProcTimes>,
    /// Per-node NIC counters.
    pub nic: Vec<NicStats>,
    /// Per-node Message Cache counters (zeroes for standard NICs).
    pub msg_cache: Vec<MsgCacheStats>,
    /// Per-node protocol counters.
    pub dsm: Vec<DsmStats>,
    /// Protocol messages transported.
    pub messages: u64,
    /// Protocol messages by kind: [acquire-req, acquire-fwd, grant,
    /// barrier-arrive, barrier-release, page-req, page-resp, diff-req,
    /// diff-resp].
    pub msg_kinds: [u64; 9],
    /// One-way wire latency distribution per message kind (kinds that
    /// never appeared are omitted).
    pub latency: Vec<KindLatency>,
    /// Raw per-kind latency histograms behind `latency` (schema ≥ 4;
    /// empty when parsed from an older archive). These are what
    /// `cni-batch` merges across the runs of a batch.
    pub latency_hist: Vec<KindHistogram>,
    /// Trace-buffer accounting when tracing was enabled, `None` otherwise.
    pub trace: Option<TraceSummary>,
    /// Fault-injection and reliability-protocol counters (all zero when
    /// the run used a zero fault plan). Schema ≥ 3; zeroes when parsed
    /// from a version-2 archive.
    pub faults: FaultStats,
    /// Span-derived per-message stage decomposition, present when the
    /// run was executed with observability enabled (`cni-run --obs`).
    /// Schema ≥ 5; `None` when parsed from an older archive.
    pub stages: Option<cni_obs::ObsReport>,
}

impl RunReport {
    /// Parse a serialized report of any supported schema version.
    ///
    /// * Versions [`OLDEST_PARSEABLE_VERSION`]`..=`[`REPORT_VERSION`]
    ///   parse; fields a version predates are filled with their
    ///   documented defaults (`faults` zeroed below 3, `latency_hist`
    ///   empty below 4). The parsed struct keeps the archive's original
    ///   `version` value.
    /// * A missing, non-integer, too-old or too-new `version` field is
    ///   rejected with a descriptive error — a report written by a future
    ///   major schema must not be silently misread.
    pub fn parse_json(s: &str) -> Result<RunReport, String> {
        let mut v: serde_json::Value =
            serde_json::from_str(s).map_err(|e| format!("malformed report JSON: {e}"))?;
        let obj = v
            .as_object_mut()
            .ok_or_else(|| "report JSON is not an object".to_string())?;
        let version = obj
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| "report has no integer `version` field".to_string())?;
        if version < OLDEST_PARSEABLE_VERSION as u64 {
            return Err(format!(
                "report schema version {version} predates the oldest supported \
                 version {OLDEST_PARSEABLE_VERSION}"
            ));
        }
        if version > REPORT_VERSION as u64 {
            return Err(format!(
                "report schema version {version} is newer than this build \
                 understands (max {REPORT_VERSION})"
            ));
        }
        // Migrate: materialise fields the archive's schema predates.
        if version < 3 && !obj.contains_key("faults") {
            obj.insert("faults".to_string(), FaultStats::default().to_value());
        }
        if version < 4 && !obj.contains_key("latency_hist") {
            obj.insert(
                "latency_hist".to_string(),
                Vec::<KindHistogram>::new().to_value(),
            );
        }
        if version < 5 {
            if !obj.contains_key("stages") {
                obj.insert("stages".to_string(), serde_json::Value::Null);
            }
            // v5 also widened `TraceSummary` with the span accounting
            // counters; a pre-v5 archive's (non-null) trace object lacks
            // them and would fail strict field deserialization.
            if let Some(mut t) = obj.remove("trace") {
                if let Some(tm) = t.as_object_mut() {
                    for key in ["spans_opened", "spans_closed", "span_drops"] {
                        if !tm.contains_key(key) {
                            tm.insert(key.to_string(), 0u64.to_value());
                        }
                    }
                }
                obj.insert("trace".to_string(), t);
            }
        }
        if version < 6 {
            // v6 widened the per-NIC stats with the collective offload
            // counters; older archives never offloaded, so zero is exact.
            if let Some(mut nic) = obj.remove("nic") {
                if let Some(entries) = nic.as_array_mut() {
                    for entry in entries.iter_mut() {
                        if let Some(em) = entry.as_object_mut() {
                            for key in ["coll_combines", "coll_forwards"] {
                                if !em.contains_key(key) {
                                    em.insert(key.to_string(), 0u64.to_value());
                                }
                            }
                        }
                    }
                }
                obj.insert("nic".to_string(), nic);
            }
        }
        RunReport::from_value(&v).map_err(|e| format!("invalid v{version} report: {e}"))
    }
    /// The paper's *network cache hit ratio*, aggregated across nodes:
    /// board-resident transmissions over page-backed transmissions.
    pub fn hit_ratio(&self) -> f64 {
        let hits: u64 = self.nic.iter().map(|n| n.tx_cache_hits).sum();
        let lookups: u64 = self.nic.iter().map(|n| n.tx_page_lookups).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Mean per-processor breakdown (what Tables 2–4 report).
    pub fn mean_breakdown(&self) -> ProcTimes {
        let n = self.procs.len().max(1) as u64;
        let mut acc = ProcTimes::default();
        for p in &self.procs {
            acc.compute += p.compute;
            acc.overhead += p.overhead;
            acc.delay += p.delay;
            acc.total += p.total;
        }
        ProcTimes {
            compute: SimTime::from_ps(acc.compute.as_ps() / n),
            overhead: SimTime::from_ps(acc.overhead.as_ps() / n),
            delay: SimTime::from_ps(acc.delay.as_ps() / n),
            total: SimTime::from_ps(acc.total.as_ps() / n),
        }
    }

    /// Convert a time into units of 10⁹ CPU cycles of `clock` (the unit of
    /// Tables 2–4).
    pub fn gcycles(t: SimTime, clock: Clock) -> f64 {
        clock.cycles_in(t) as f64 / 1e9
    }

    /// Total host interrupts taken across the cluster.
    pub fn interrupts(&self) -> u64 {
        self.nic.iter().map(|n| n.interrupts).sum()
    }

    /// Total bytes DMAed host→board across the cluster.
    pub fn dma_bytes_to_board(&self) -> u64 {
        self.nic.iter().map(|n| n.dma_bytes_to_board).sum()
    }

    /// Full-page protocol transfers (the Message Cache's traffic).
    pub fn page_transfers(&self) -> u64 {
        self.msg_kinds[6]
    }

    /// Diff transfers (concurrent-write-sharing merges).
    pub fn diff_transfers(&self) -> u64 {
        self.msg_kinds[8]
    }
}

/// Speedup of a parallel run against a baseline (usually 1 processor).
pub fn speedup(baseline: &RunReport, parallel: &RunReport) -> f64 {
    baseline.wall.as_ps() as f64 / parallel.wall.as_ps() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(walls: &[(u64, u64)]) -> RunReport {
        // (hits, lookups) per node
        RunReport {
            version: REPORT_VERSION,
            wall: SimTime::from_us(10),
            procs: vec![
                ProcTimes {
                    compute: SimTime::from_us(4),
                    overhead: SimTime::from_us(1),
                    delay: SimTime::from_us(5),
                    total: SimTime::from_us(10),
                };
                walls.len()
            ],
            nic: walls
                .iter()
                .map(|&(h, l)| NicStats {
                    tx_cache_hits: h,
                    tx_page_lookups: l,
                    ..NicStats::default()
                })
                .collect(),
            msg_cache: vec![MsgCacheStats::default(); walls.len()],
            dsm: vec![DsmStats::default(); walls.len()],
            messages: 0,
            msg_kinds: [0; 9],
            latency: Vec::new(),
            latency_hist: Vec::new(),
            trace: None,
            faults: FaultStats::default(),
            stages: None,
        }
    }

    #[test]
    fn kind_names_cover_the_protocol_and_match_the_analysis_labels() {
        use cni_dsm::protocol::kind;
        let protocol = [
            kind::ACQUIRE_REQ,
            kind::ACQUIRE_FWD,
            kind::ACQUIRE_GRANT,
            kind::BARRIER_ARRIVE,
            kind::BARRIER_RELEASE,
            kind::PAGE_REQ,
            kind::PAGE_RESP,
            kind::DIFF_REQ,
            kind::DIFF_RESP,
        ];
        let names: std::collections::BTreeSet<_> = protocol.iter().map(|&k| kind_name(k)).collect();
        assert_eq!(names.len(), protocol.len(), "{names:?}");
        assert!(!names.contains("unknown"));
        assert_eq!(kind_name(0xA0), "app");
        // A report and cni-analyze name a kind alike; only the reliability
        // layer's ACK, which no report's latency table carries, differs.
        for k in 0..=u8::MAX {
            if k != 0xF1 {
                assert_eq!(kind_name(k), cni_obs::kind_label(k), "kind {k:#04x}");
            }
        }
        assert_eq!(kind_name(0xF1), "unknown");
    }

    #[test]
    fn hit_ratio_aggregates_across_nodes() {
        let r = report(&[(3, 4), (1, 4)]);
        assert!((r.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(report(&[(0, 0)]).hit_ratio(), 0.0);
    }

    #[test]
    fn mean_breakdown_averages() {
        let r = report(&[(0, 0), (0, 0)]);
        let m = r.mean_breakdown();
        assert_eq!(m.compute, SimTime::from_us(4));
        assert_eq!(m.total, SimTime::from_us(10));
    }

    #[test]
    fn speedup_ratio() {
        let base = report(&[(0, 0)]);
        let mut par = report(&[(0, 0)]);
        par.wall = SimTime::from_us(2);
        assert!((speedup(&base, &par) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gcycles_conversion() {
        let clock = Clock::from_mhz(166);
        let t = clock.cycles(2_000_000_000);
        assert!((RunReport::gcycles(t, clock) - 2.0).abs() < 1e-9);
    }

    /// A hand-written archive at `version`, shaped like the fields that
    /// schema actually had: v2 predates `faults`, v3 predates
    /// `latency_hist`, v4 predates `stages` and the span counters inside
    /// `trace`, v5 predates the per-NIC collective counters.
    fn archived_json(version: u32) -> String {
        let mut r = report(&[(3, 4)]);
        r.version = version;
        let mut v = serde_json::to_value(&r).unwrap();
        let obj = v.as_object_mut().unwrap();
        if version < 6 {
            for entry in obj.get_mut("nic").unwrap().as_array_mut().unwrap() {
                let em = entry.as_object_mut().unwrap();
                em.remove("coll_combines");
                em.remove("coll_forwards");
            }
        }
        if version < 5 {
            obj.remove("stages");
        }
        if version < 4 {
            obj.remove("latency_hist");
        }
        if version < 3 {
            obj.remove("faults");
        }
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn parse_json_reads_v2_archives() {
        let r = RunReport::parse_json(&archived_json(2)).unwrap();
        assert_eq!(r.version, 2);
        assert_eq!(r.faults, FaultStats::default());
        assert!(r.latency_hist.is_empty());
        assert_eq!(r.nic[0].tx_cache_hits, 3);
        assert!((r.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parse_json_reads_v3_archives() {
        let r = RunReport::parse_json(&archived_json(3)).unwrap();
        assert_eq!(r.version, 3);
        assert!(r.latency_hist.is_empty());
    }

    #[test]
    fn parse_json_reads_v4_archives_with_pre_span_trace() {
        // A v4 archive whose `trace` summary predates the span
        // accounting counters: migration must default them to zero
        // instead of failing the missing-field check.
        let mut v: serde_json::Value = serde_json::from_str(&archived_json(4)).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.insert(
            "trace".to_string(),
            serde_json::from_str("{\"recorded\": 12, \"dropped\": 3, \"capacity\": 64}").unwrap(),
        );
        let r = RunReport::parse_json(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(r.version, 4);
        assert!(r.stages.is_none());
        let t = r.trace.unwrap();
        assert_eq!(t.recorded, 12);
        assert_eq!(t.spans_opened, 0);
        assert_eq!(t.spans_closed, 0);
        assert_eq!(t.span_drops, 0);
    }

    #[test]
    fn parse_json_reads_v5_archives_without_collective_counters() {
        let r = RunReport::parse_json(&archived_json(5)).unwrap();
        assert_eq!(r.version, 5);
        assert_eq!(r.nic[0].coll_combines, 0);
        assert_eq!(r.nic[0].coll_forwards, 0);
        assert_eq!(r.nic[0].tx_cache_hits, 3);
    }

    #[test]
    fn parse_json_round_trips_current() {
        let mut orig = report(&[(1, 2)]);
        let mut h = Histogram::new();
        h.record(7);
        h.record(130);
        orig.latency_hist = vec![KindHistogram {
            kind: 0xA0,
            hist: h,
        }];
        orig.stages = Some(cni_obs::ObsReport {
            messages: 1,
            ..cni_obs::ObsReport::default()
        });
        let json = serde_json::to_string(&orig).unwrap();
        let back = RunReport::parse_json(&json).unwrap();
        assert_eq!(back.version, REPORT_VERSION);
        assert_eq!(back.latency_hist.len(), 1);
        assert_eq!(back.latency_hist[0].kind, 0xA0);
        assert_eq!(back.latency_hist[0].hist.count(), 2);
        assert_eq!(back.stages.as_ref().map(|s| s.messages), Some(1));
        // Re-serialising the parsed report is byte-identical.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn parse_json_rejects_unknown_majors() {
        for bad in [0, 1, REPORT_VERSION + 1, 99] {
            let err = RunReport::parse_json(&archived_json(bad)).unwrap_err();
            assert!(err.contains("version") || err.contains("schema"), "{err}");
        }
        let err = RunReport::parse_json("{\"wall\": 0}").unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(RunReport::parse_json("not json").is_err());
        assert!(RunReport::parse_json("[1, 2]").is_err());
    }

    #[test]
    fn parse_json_refuses_deep_nesting_instead_of_overflowing_the_stack() {
        // 200,000 open brackets used to recurse once per level in the
        // JSON parser and abort the process with a stack overflow.
        let err = RunReport::parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 512 levels"), "{err}");
        let deepest = format!("{}{}", "[".repeat(512), "]".repeat(512));
        let err = RunReport::parse_json(&deepest).unwrap_err();
        assert!(err.contains("not an object"), "{err}");
        let err = RunReport::parse_json(&format!("{{\"v\": [{deepest}]}}")).unwrap_err();
        assert!(err.contains("nesting deeper than 512 levels"), "{err}");
    }
}
