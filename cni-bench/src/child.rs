//! The measuring side of the benchmark. Each workload runs in a fresh
//! child process so that its memory high-water mark and allocator state
//! start cold; the child writes one JSON object on its last stdout line
//! for the parent to read.
//!
//! Load model: a closed loop with one client. One simulation runs at a
//! time and the next repetition starts when the previous returns.

use crate::hostspeed::{self, Reference};
use crate::probes::{self, Recorded};
use crate::spans::{span_value, Spans};
use crate::stats::median;
use crate::workload::{Workload, DEFAULT_SEED};
use cni::{Config, RunReport, SimTime, TraceSink, World};
use serde_json::{Map, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Capacity of the traced run's event ring. The largest workload records
/// a few million events; a drop fails the trace self-check rather than
/// silently skewing the replays.
const TRACE_RING: usize = 1 << 24;

/// Committed RunReport digests for [`DEFAULT_SEED`], one per workload.
fn expected_digest(w: Workload) -> &'static str {
    match w {
        Workload::Jacobi8Cni => include_str!("../expected/jacobi8-cni.digest"),
        Workload::Water8Lossy => include_str!("../expected/water8-lossy.digest"),
        Workload::Cholesky8Std => include_str!("../expected/cholesky8-std.digest"),
        Workload::FatTree256Pdes => include_str!("../expected/fattree256-pdes.digest"),
    }
    .trim()
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a report: FNV-1a over its canonical JSON, in hex.
pub fn digest(report: &RunReport) -> String {
    let json = serde_json::to_string(report).expect("RunReport serializes");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Peak resident set of this process (VmHWM), in MB.
fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One timed repetition.
struct Rep {
    setup_s: f64,
    run_s: f64,
    /// The host-speed reference kernel's time, when it ran.
    reference_s: Option<f64>,
    report: RunReport,
    events: u64,
}

/// Build and run one world, timing set-up and run separately. Panics
/// (deadlock, protocol violation) become errors. `verify` runs the
/// verify-mode programs and checks the result against the reference.
/// A `reference` kernel runs between set-up and run: there its cache
/// footprint cannot skew the (sub-millisecond) set-up that follows a
/// previous run's teardown, and it costs the long run next to nothing.
fn rep(
    w: Workload,
    cfg: Config,
    trace: &TraceSink,
    verify: bool,
    reference: Option<&mut Reference>,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut world = World::new(cfg);
        if trace.is_enabled() {
            world.set_trace(trace.clone());
        }
        let (progs, layout) = w.build(&mut world, verify);
        let setup_s = t.elapsed().as_secs_f64();
        let reference_s = reference.map(Reference::time);
        let t = Instant::now();
        let report = world.run(progs);
        let run_s = t.elapsed().as_secs_f64();
        if verify {
            layout.check(&world)?;
        }
        Ok(Rep {
            setup_s,
            run_s,
            reference_s,
            report,
            events: world.events_dispatched(),
        })
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("run panicked: {msg}"))
    })
}

/// Runs attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        self.check(what, r)
    }

    /// Count a failed check on a run already counted as attempted.
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        r.map_err(|e| self.fail(what, e)).ok()
    }

    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }

    fn into_map(self) -> Map {
        let mut m = Map::new();
        m.insert("attempted".into(), self.attempted.into());
        m.insert("failed".into(), self.failed.into());
        m.insert(
            "failures".into(),
            Value::Array(self.failures.into_iter().map(Value::from).collect()),
        );
        m
    }
}

/// The seed variants one measurement covers (see
/// [`Workload::variants`]). Every run of a variant must produce the
/// report its first run produced, and variant 0 at [`DEFAULT_SEED`] the
/// committed digest.
struct Family {
    w: Workload,
    cfgs: Vec<Config>,
    committed: bool,
    /// Per variant: the first run's digest and completion time.
    seen: Vec<Option<(String, SimTime)>>,
}

impl Family {
    fn new(w: Workload, seed: u64, variants: u64, engine_workers: usize) -> Family {
        let cfgs: Vec<Config> = (0..variants)
            .map(|i| {
                w.config(Workload::variant_seed(seed, i))
                    .with_engine_workers(engine_workers)
            })
            .collect();
        Family {
            w,
            seen: vec![None; cfgs.len()],
            cfgs,
            committed: seed == DEFAULT_SEED,
        }
    }

    /// Run variant `i` once and check its report.
    fn run(
        &mut self,
        i: usize,
        reference: Option<&mut Reference>,
        tally: &mut Tally,
        spans: &mut Spans,
        parent: u64,
    ) -> Option<Rep> {
        let (w, cfg) = (self.w, self.cfgs[i]);
        let (r, _) = spans.time("rep", parent, || {
            rep(w, cfg, &TraceSink::Disabled, false, reference)
        });
        let r = tally.record("rep", r)?;
        let d = digest(&r.report);
        let same = match &self.seen[i] {
            _ if i == 0 && self.committed && d != expected_digest(w) => Err(format!(
                "report digest {d} differs from the committed {}",
                expected_digest(w)
            )),
            Some((first, ..)) if *first != d => Err(format!(
                "report digest {d} differs from the first run's {first}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen[i] = Some((d, r.report.wall));
                Ok(())
            }
        };
        tally.check("variant", same).map(|()| r)
    }

    /// Timed cycles, each running every variant once, with the host-speed
    /// reference kernel inside the first: at least `min_cycles`,
    /// continuing until `budget` has elapsed. Returns each complete
    /// cycle's mean set-up and run time and its reference time.
    #[allow(clippy::too_many_arguments)]
    fn cycles(
        &mut self,
        budget: Duration,
        min_cycles: usize,
        reference: &mut Reference,
        tally: &mut Tally,
        spans: &mut Spans,
        parent: u64,
    ) -> Cycles {
        let mut c = Cycles::default();
        let start = Instant::now();
        let mut n = 0;
        while n < min_cycles || start.elapsed() < budget {
            n += 1;
            let mut reps = Vec::with_capacity(self.cfgs.len());
            for i in 0..self.cfgs.len() {
                let r = (i == 0).then_some(&mut *reference);
                reps.extend(self.run(i, r, tally, spans, parent));
            }
            if let (true, Some(reference_s)) = (reps.len() == self.cfgs.len(), reps[0].reference_s)
            {
                let k = reps.len() as f64;
                c.setup_s
                    .push(reps.iter().map(|r| r.setup_s).sum::<f64>() / k);
                c.run_s.push(reps.iter().map(|r| r.run_s).sum::<f64>() / k);
                c.reference_s.push(reference_s);
            }
        }
        c
    }

    /// Mean simulated completion time over the variants seen, in ms.
    fn sim_wall_ms(&self) -> Option<f64> {
        let walls: Vec<f64> = self
            .seen
            .iter()
            .map(|s| s.as_ref().map(|(_, wall)| wall.as_ms_f64()))
            .collect::<Option<_>>()?;
        Some(walls.iter().sum::<f64>() / walls.len() as f64)
    }
}

/// Per complete cycle: mean set-up and run time over the variants, and
/// the reference kernel's time in the same cycle; all host seconds.
#[derive(Default)]
struct Cycles {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    reference_s: Vec<f64>,
}

impl Cycles {
    /// `times` scaled cycle by cycle to nominal host speed.
    fn scaled(&self, times: &[f64]) -> Vec<f64> {
        times
            .iter()
            .zip(&self.reference_s)
            .map(|(&t, &r)| hostspeed::scaled(t, r))
            .collect()
    }
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::from(x)).collect())
}

fn spans_value(spans: &Spans) -> Value {
    Value::Array(
        spans
            .spans()
            .iter()
            .map(|s| Value::Object(span_value(s)))
            .collect(),
    )
}

/// End-to-end measurement: one cold verify-mode run of variant 0
/// (checked against the reference) and one untimed run of every other
/// variant, after which the high-water mark is `peak_rss_mb`; then timed
/// cycles over the variants for `seconds`. Set-up and run times are
/// reported scaled to nominal host speed, with the reference times.
pub fn e2e(w: Workload, seed: u64, seconds: f64, min_cycles: usize) -> Value {
    let workers = w.config(seed).engine_workers;
    let mut fam = Family::new(w, seed, w.variants(), workers);
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    let root = spans.enter("e2e", 0);
    let cfg0 = fam.cfgs[0];
    let (cold, _) = spans.time("verify", root, || {
        rep(w, cfg0, &TraceSink::Disabled, true, None)
    });
    tally.record("verify run", cold);
    for i in 1..fam.cfgs.len() {
        fam.run(i, None, &mut tally, &mut spans, root);
    }
    let peak_rss_mb = vm_hwm_mb();
    let budget = Duration::from_secs_f64(seconds);
    let mut reference = Reference::new();
    let c = fam.cycles(
        budget,
        min_cycles,
        &mut reference,
        &mut tally,
        &mut spans,
        root,
    );
    spans.exit(root);
    let mut m = tally.into_map();
    m.insert("run_s".into(), floats(&c.scaled(&c.run_s)));
    m.insert("setup_s".into(), floats(&c.scaled(&c.setup_s)));
    m.insert("reference_s".into(), floats(&c.reference_s));
    if let Some(ms) = fam.sim_wall_ms() {
        m.insert("sim_wall_ms".into(), ms.into());
    }
    match peak_rss_mb {
        Ok(mb) => m.insert("peak_rss_mb".into(), mb.into()),
        Err(e) => m.insert("error".into(), e.into()),
    };
    Value::Object(m)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer measurement of variant 0: untraced repetitions for the base
/// `run_s` (and, for a parallel workload, serial ones), one traced run,
/// then the replay probes and counts over what it recorded. All times
/// here are raw host seconds, measured in the same phase as the probes.
pub fn trace(w: Workload, seed: u64, seconds: f64, min_cycles: usize) -> Value {
    let cfg = w.config(seed);
    let mut tally = Tally::default();
    let mut spans = Spans::new();
    let root = spans.enter("trace", 0);
    let mut out = Map::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.into(), v.into());
    };

    let budget = Duration::from_secs_f64(seconds / 2.0);
    let (cold, _) = spans.time("cold", root, || {
        rep(w, cfg, &TraceSink::Disabled, false, None)
    });
    tally.record("cold run", cold);
    let hwm_cold = vm_hwm_mb();
    let mut reference = Reference::new();
    let untraced = spans.enter("untraced", root);
    let mut fam = Family::new(w, seed, 1, cfg.engine_workers);
    let c = fam.cycles(
        budget,
        min_cycles,
        &mut reference,
        &mut tally,
        &mut spans,
        untraced,
    );
    let run_s = median(&c.run_s);
    spans.exit(untraced);
    if let (Ok(a), Ok(b)) = (&hwm_cold, vm_hwm_mb()) {
        put("mem.rss_growth_mb", b - a);
    }
    let serial_cfg = cfg.with_engine_workers(1);
    let serial_run_s = if w.serial() {
        run_s
    } else {
        let id = spans.enter("serial", root);
        let mut serial = Family::new(w, seed, 1, 1);
        let c = serial.cycles(
            budget,
            min_cycles,
            &mut reference,
            &mut tally,
            &mut spans,
            id,
        );
        spans.exit(id);
        median(&c.run_s)
    };
    put("sim.pdes.serial_run_s", serial_run_s);
    put("sim.pdes.speedup", serial_run_s / run_s);

    // The traced run is pinned to the serial loop by the engine (live
    // tracing observes engine internals mid-window), so its overhead is
    // measured against the serial untraced run.
    let sink = TraceSink::ring(TRACE_RING);
    let (traced, _) = spans.time("traced", root, || rep(w, serial_cfg, &sink, false, None));
    let traced = tally.record("traced run", traced);
    let summary = sink.summary().expect("ring sink has a summary");
    let records = sink.drain();
    drop(sink);
    let Some(traced) = traced else {
        let mut m = tally.into_map();
        m.insert("spans".into(), spans_value(&spans));
        return Value::Object(m);
    };
    let unperturbed = match &fam.seen[0] {
        _ if summary.dropped != 0 => Err(format!("the ring dropped {} events", summary.dropped)),
        Some((_, wall)) if *wall != traced.report.wall => {
            Err("tracing changed the simulated completion time".to_string())
        }
        _ => Ok(()),
    };
    tally.check("trace", unperturbed);
    put("trace.records", summary.recorded as f64);
    put(
        "trace.overhead_pct",
        (traced.run_s - serial_run_s) / serial_run_s * 100.0,
    );

    let (analysis, analyze_s) =
        spans.time("obs.analyze", root, || cni_obs::render_analysis(&records));
    std::hint::black_box(analysis);
    put("obs.analyze_s", analyze_s);
    let stages = cni_obs::decompose(&cni_obs::SpanTree::build(&records));

    let rec = Recorded::extract(&records);
    drop(records);
    if rec.events != traced.events {
        let why = format!(
            "{} dispatches recorded, the engine counted {}",
            rec.events, traced.events
        );
        tally.fail("trace", why);
    }
    let report = &traced.report;

    put("sim.queue.events", rec.events as f64);
    put("sim.queue.events_per_s", rec.events as f64 / run_s);
    put("sim.queue.depth_mean", rec.depth_mean);
    let (q_ns, _) = spans.time("probe.queue", root, || {
        probes::queue_ns_per_op(rec.events, rec.depth_mean)
    });
    put("sim.queue.ns_per_op", q_ns);
    put("sim.queue.host_s", q_ns * rec.events as f64 / 1e9);
    put("sim.cothread.switches", rec.switches as f64);

    // Only the lossy path materialises cells: a lossless run prices its
    // PDUs by cell count and never segments or reassembles one.
    let lossy = !cfg.faults.is_zero();
    let wire = rec.wire_pdus(lossy);
    let seg = cfg.atm.segmenter();
    let segmented: &[probes::Pdu] = if lossy { &wire } else { &[] };
    put("atm.aal5.pdus", segmented.len() as f64);
    put(
        "atm.aal5.cells",
        segmented
            .iter()
            .map(|p| seg.cell_count(p.bytes as usize) as u64)
            .sum::<u64>() as f64,
    );
    let (aal5, _) = spans.time("probe.aal5", root, || {
        probes::aal5_ns_per_pdu(&cfg, segmented)
    });
    if let Some(ns) = tally.check("AAL5 replay", aal5) {
        put("atm.aal5.ns_per_pdu", ns);
        put("atm.aal5.host_s", ns * segmented.len() as f64 / 1e9);
    }
    let (fabric, _) = spans.time("probe.fabric", root, || {
        probes::fabric_ns_per_pdu(&cfg, &wire)
    });
    if let Some(ns) = tally.check("fabric replay", fabric) {
        put("atm.fabric.ns_per_pdu", ns);
        put("atm.fabric.host_s", ns * wire.len() as f64 / 1e9);
    }

    let (mc, _) = spans.time("probe.msgcache", root, || {
        probes::msgcache_replay(&cfg, report, &rec)
    });
    if let Some(mc) = tally.check("Message Cache replay", mc) {
        put("nic.msgcache.lookups", mc.lookups as f64);
        put("nic.msgcache.hit_ratio", ratio(mc.hits, mc.lookups));
        put("nic.msgcache.ns_per_op", mc.ns_per_op);
        put("nic.msgcache.host_s", mc.ns_per_op * mc.ops as f64 / 1e9);
    }
    let (pf, _) = spans.time("probe.pathfinder", root, || {
        probes::pathfinder_replay(&cfg, &rec)
    });
    if let Some((ns, cells)) = tally.check("PATHFINDER replay", pf) {
        let n = rec.classifications();
        let reported: u64 = report.nic.iter().map(|s| s.classify_cells).sum();
        if cells != reported {
            let why = format!("{cells} cells replayed, the NICs counted {reported}");
            tally.fail("PATHFINDER replay", why);
        }
        put("pathfinder.classifications", n as f64);
        put("pathfinder.cells_per_classify", ratio(cells, n));
        put("pathfinder.ns_per_classify", ns);
        put("pathfinder.host_s", ns * n as f64 / 1e9);
    }

    let nic_sum = |f: fn(&cni_nic::NicStats) -> u64| report.nic.iter().map(f).sum::<u64>() as f64;
    put("nic.interrupts", nic_sum(|s| s.interrupts));
    put("nic.polls", nic_sum(|s| s.polls));
    put("nic.aih_dispatches", nic_sum(|s| s.aih_dispatches));
    put("nic.dma_bytes_to_board", nic_sum(|s| s.dma_bytes_to_board));
    put("nic.dma_bytes_to_host", nic_sum(|s| s.dma_bytes_to_host));
    put("nic.coll_combines", nic_sum(|s| s.coll_combines));

    let mut tot = cni_obs::StageTotals::default();
    let mut e2e_ps = 0;
    for k in &stages.kinds {
        tot.tx_queue_ps += k.stages.tx_queue_ps;
        tot.rx_nic_ps += k.stages.rx_nic_ps;
        tot.wire_ps += k.stages.wire_ps;
        tot.handler_ps += k.stages.handler_ps;
        e2e_ps += k.e2e_ps;
    }
    put("nic.tx_queue_share", ratio(tot.tx_queue_ps, e2e_ps));
    put("nic.rx_nic_share", ratio(tot.rx_nic_ps, e2e_ps));
    put("atm.fabric.wire_share", ratio(tot.wire_ps, e2e_ps));
    put("dsm.handler_share", ratio(tot.handler_ps, e2e_ps));

    let f = &report.faults;
    put("faults.cells_dropped", f.cells_dropped as f64);
    put("faults.cells_corrupted", f.cells_corrupted as f64);
    put("faults.crc_failures", f.crc_failures as f64);
    put("core.gbn.retransmits", f.retransmits as f64);
    put("core.gbn.timeouts", f.timeouts as f64);
    put("core.gbn.duplicates", f.duplicates as f64);
    put("core.gbn.acks", f.acks_sent as f64);
    let frames = rec.frames();
    put(
        "core.gbn.goodput_ratio",
        if frames == 0 {
            1.0
        } else {
            ratio(frames.saturating_sub(f.retransmits), frames)
        },
    );

    let dsm_sum = |f: fn(&cni_dsm::DsmStats) -> u64| report.dsm.iter().map(f).sum::<u64>() as f64;
    put("dsm.read_faults", dsm_sum(|s| s.read_faults));
    put("dsm.write_faults", dsm_sum(|s| s.write_faults));
    put("dsm.page_fetches", dsm_sum(|s| s.page_fetches));
    put("dsm.diff_fetches", dsm_sum(|s| s.diff_fetches));
    put("dsm.acquires_remote", dsm_sum(|s| s.lock_remote));
    let total: u64 = report.procs.iter().map(|p| p.total.as_ps()).sum();
    let delay: u64 = report.procs.iter().map(|p| p.delay.as_ps()).sum();
    let compute: u64 = report.procs.iter().map(|p| p.compute.as_ps()).sum();
    put("dsm.sync_delay_share", ratio(delay, total));
    put("apps.compute_share", ratio(compute, total));

    spans.exit(root);
    let mut m = tally.into_map();
    m.insert("run_s".into(), run_s.into());
    m.insert("metrics".into(), Value::Object(out));
    m.insert("spans".into(), spans_value(&spans));
    Value::Object(m)
}
