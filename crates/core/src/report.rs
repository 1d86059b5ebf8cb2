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
/// [`RunReport::parse_json`] reads this version only. A run is a pure
/// function of its configuration, so a report of another schema is
/// replaced by rerunning it, never migrated.
pub const REPORT_VERSION: u32 = 6;

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

/// Human-readable name of a wire kind byte (see [`KindLatency::kind`]):
/// the name `cni-analyze` gives it too.
pub use cni_obs::kind_label as kind_name;

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
    /// Raw per-kind latency histograms behind `latency`. These are what
    /// `cni-batch` merges across the runs of a batch.
    pub latency_hist: Vec<KindHistogram>,
    /// Trace-buffer accounting when tracing was enabled, `None` otherwise.
    pub trace: Option<TraceSummary>,
    /// Fault-injection and reliability-protocol counters (all zero when
    /// the run used a zero fault plan).
    pub faults: FaultStats,
    /// Span-derived per-message stage decomposition, present when the
    /// run was executed with observability enabled (`cni-run --obs`).
    pub stages: Option<cni_obs::ObsReport>,
}

impl RunReport {
    /// Parse a serialized report of this build's schema,
    /// [`REPORT_VERSION`].
    ///
    /// A missing or non-integer `version`, or any other version, is
    /// refused with an error that names it: a report another build wrote
    /// is not this build's result, even when it decodes.
    pub fn parse_json(s: &str) -> Result<RunReport, String> {
        let v: serde_json::Value =
            serde_json::from_str(s).map_err(|e| format!("malformed report JSON: {e}"))?;
        let version = v
            .as_object()
            .ok_or_else(|| "report JSON is not an object".to_string())?
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| "report has no integer `version` field".to_string())?;
        if version != REPORT_VERSION as u64 {
            return Err(format!(
                "report schema version {version} is not this build's ({REPORT_VERSION})"
            ));
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
        // The reliability layer's ACK never reaches a report's latency
        // table, but cni-analyze names it.
        assert_eq!(kind_name(0xF1), "ack");
        assert_eq!(kind_name(0x00), "unknown");
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

    /// A report of this build's shape stamped with `version`.
    fn archived_json(version: u32) -> String {
        let mut r = report(&[(3, 4)]);
        r.version = version;
        serde_json::to_string(&r).unwrap()
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
        for bad in [0, 1, 2, 3, 4, 5, REPORT_VERSION + 1, 99] {
            let err = RunReport::parse_json(&archived_json(bad)).unwrap_err();
            assert!(
                err.contains(&format!("schema version {bad} is not this build's")),
                "{err}"
            );
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
