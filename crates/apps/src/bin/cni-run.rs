//! `cni-run` — command-line driver for the CNI cluster simulator.
//!
//! ```text
//! cni-run --app jacobi --n 256 --iters 25 --procs 8 --nic cni
//! cni-run --app water --molecules 216 --procs 16 --nic standard
//! cni-run --app cholesky --matrix bcsstk14 --procs 8 --page-bytes 4096
//! cni-run --app jacobi --n 128 --procs 8 --compare   # CNI vs standard
//! ```
//!
//! Prints the run report (completion time, overhead breakdown, network
//! cache hit ratio, NIC counters) as text, or JSON with `--json`.
//!
//! With `--trace <path>` the run records simulation events (queue
//! dispatches, DMA transfers, Message-Cache traffic, PATHFINDER
//! classifications, DSM protocol actions, periodic metrics samples) and
//! exports them as a Chrome trace-event file (load in Perfetto /
//! `chrome://tracing`) or as JSONL.
//!
//! With `--obs` the run additionally threads causal span ids through
//! every PDU lifecycle and prints the `cni-obs` analysis: per-message
//! stage decomposition, the barrier interval's critical path and the
//! run-wide utilization profile. A JSONL trace written under `--obs`
//! can be re-analysed offline with `cni-analyze`.

use cni::{
    kind_name, BrownoutWindow, Config, FaultPlan, NicKind, RunReport, SimTime, TraceRecord,
    TraceSink, REPORT_VERSION,
};
use cni_apps::checkpoint::{newest_snapshot, read_snapshot, run_app_checkpointed};
use cni_apps::experiments::{run_app, run_app_obs, run_app_traced, App};
use cni_apps::sweep::{self, FAULT_KEYS, SIZE_KEYS, SWITCH_KEYS};
use cni_batch::Pool;
use cni_trace::export::{job_trace_path, write_chrome, write_jsonl};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The `--help` text. Plain newlines, not `\` continuations (which strip
/// the next line's leading whitespace), so option lines and their wrapped
/// descriptions keep their indentation.
const USAGE: &str = "\
usage: cni-run --app <jacobi|water|cholesky|latency> [options]
       cni-run --resume PATH | --fork-at PATH | --sweep PATH [options]

run options (a single run's flags; a sweep entry's keys, with _ for -):
  --app NAME          jacobi, water or cholesky; latency times one
                      message size on 2 processors and both interfaces
                      and reads neither --procs, --nic nor an app size
  --procs N           processors (default 8)
  --nic <cni|standard>  interface (default cni)
  --page-bytes N      shared page size (default 2048)
  --msg-cache-bytes N Message Cache capacity (default 32768)
  --jumbo             unrestricted ATM cell size
  --topology LxDxU    fat-tree of L leaves with D host ports and U uplinks
                      (4x16x16 = 64 hosts), or single (default); TOPOLOGY.md
  --tree-barrier      combining-tree barrier (extension)
  --collectives       NIC-resident barrier/release combining
                      (implies --tree-barrier; CNI only)
  --seed N            timing-jitter seed (workloads are fixed)
fault options (run options that --fork-at reads too):
  --loss-prob P       per-cell drop probability in [0,1) (default 0)
  --corrupt-prob P    per-cell bit-corruption probability (default 0)
  --jitter-ps N       max per-cell delivery jitter in ps (default 0)
  --fault-seed N      fault-injection RNG seed (default 1)
jacobi:   --n N (grid, default 256)   --iters N (default 25)
water:    --molecules N (default 216) --steps N (default 2)
cholesky: --matrix <bcsstk14|bcsstk15> (default bcsstk14)
latency:  --bytes N (message size, default 4096)

single-run options (a mode exits 2 on a flag it does not read):
  --json              machine-readable output (every mode)
  --compare           run both interfaces and print both
  --brownout L:S:E    total cell loss on link L from S to E (virtual
                      us); also read by --app latency and --fork-at
  --obs               causal span tracing + analysis: stage
                      decomposition, critical path, utilization
  --trace PATH        record simulation events to PATH
  --trace-format F    with --trace: chrome (default) | jsonl; also
                      read by --sweep, with --trace-dir
  --metrics-interval-us N  with --trace: metrics sample spacing in
                      virtual us (default 100; 0 disables); --obs
                      refuses it and samples every 100 us
  --checkpoint-every N  seal a snapshot after every N events as
                      DIR/ck-<events>.cnisnap; also read by --sweep
  --checkpoint-dir DIR  with --checkpoint-every: snapshot directory
                      (default cni-checkpoints)

resume and fork (the run comes from the snapshot):
  --resume PATH       finish it, byte-identical to the uninterrupted run
  --fork-at PATH      finish it under the fault options and --brownout

sweep options (a parallel batch over a JSON run list, cni_apps::sweep):
  --sweep PATH        JSON array of run objects, keyed as run options
  --jobs N            worker threads (default $CNI_JOBS, else all cores)
  --out PATH          also write the batch report JSON to PATH
  --trace-dir DIR     record each run's events to DIR/<index>-<label>.<ext>
  --resume-dir DIR    persist per-job reports under DIR and skip the
                      jobs an interrupted sweep completed (a report of
                      another schema reruns); with --checkpoint-every,
                      partial jobs resume from their newest checkpoint";

/// The modes, as a refused flag's message names them. Each flag is read
/// in some of them ([`flag`]), and the others refuse it.
const RUN: &str = "a single run";
const LATENCY: &str = "--app latency (2 processors, both interfaces, untraced)";
const RESUME: &str = "--resume (a resumed run is untraced and writes no checkpoints; \
                      it keeps the snapshot's fault plan: use --fork-at to change it)";
const FORK: &str = "--fork-at (a resumed run is untraced and writes no checkpoints; \
                    only its fault plan comes from the command line)";
const SWEEP: &str = "--sweep (each run comes from the spec)";
const EVERY_MODE: &[&str] = &[RUN, LATENCY, RESUME, FORK, SWEEP];

/// Every flag but the run keys, which [`flag`] adds: its name, whether it
/// takes a value, and the modes that read it.
const FLAGS: [(&str, bool, &[&str]); 18] = [
    ("help", false, EVERY_MODE),
    ("json", false, EVERY_MODE),
    ("compare", false, &[RUN]),
    ("obs", false, &[RUN]),
    ("bytes", true, &[LATENCY]),
    ("brownout", true, &[RUN, LATENCY, FORK]),
    ("trace", true, &[RUN]),
    ("trace-format", true, &[RUN, SWEEP]),
    ("metrics-interval-us", true, &[RUN]),
    ("checkpoint-every", true, &[RUN, SWEEP]),
    ("checkpoint-dir", true, &[RUN]),
    ("resume", true, &[RESUME]),
    ("fork-at", true, &[FORK]),
    ("sweep", true, &[SWEEP]),
    ("jobs", true, &[SWEEP]),
    ("out", true, &[SWEEP]),
    ("trace-dir", true, &[SWEEP]),
    ("resume-dir", true, &[SWEEP]),
];

/// Flags a mode reads only beside a partner flag: (flag, partner, mode).
/// Alone, the flag would be dropped, so it exits 2 naming the partner.
const PARTNERS: [(&str, &str, &str); 4] = [
    ("trace-format", "trace", RUN),
    ("trace-format", "trace-dir", SWEEP),
    ("metrics-interval-us", "trace", RUN),
    ("checkpoint-dir", "checkpoint-every", RUN),
];

/// Whether `--name` takes a value, and the modes that read it; `None` if
/// there is no such flag. A single run reads every run key's flag
/// ([`sweep::run_key`]). The latency probe reads the configuration and
/// the fault plan, but sizes no app, runs 2 processors and both
/// interfaces; a fork reads the fault plan.
fn flag(name: &str) -> Option<(bool, &'static [&'static str])> {
    if let Some(&(_, valued, modes)) = FLAGS.iter().find(|f| f.0 == name) {
        return Some((valued, modes));
    }
    let key = sweep::run_key(name)?;
    let modes: &[&str] = match key {
        _ if FAULT_KEYS.contains(&key) => &[RUN, LATENCY, FORK],
        "procs" | "nic" => &[RUN],
        _ if SIZE_KEYS.contains(&key) => &[RUN],
        _ => &[RUN, LATENCY],
    };
    Some((!SWITCH_KEYS.contains(&key), modes))
}

/// The command line: each flag with its value, `None` for a switch. A
/// repeated flag takes its last value.
type Args = BTreeMap<String, Option<String>>;

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut out = Args::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let Some(name) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        let Some((takes_value, _)) = flag(name) else {
            eprintln!("unknown flag --{name}");
            usage();
        };
        let value = takes_value.then(|| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for --{name}");
                usage();
            })
        });
        out.insert(name.to_string(), value);
    }
    out
}

fn value<'a>(args: &'a Args, name: &str) -> Option<&'a str> {
    args.get(name)?.as_deref()
}

fn get<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    match value(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{name}: {v:?}");
            usage();
        }),
    }
}

/// Write `records` to `out` as JSONL or a Chrome trace, and flush: a
/// dropped `BufWriter` would throw away the error of its last write.
fn write_records<W: Write>(out: W, jsonl: bool, records: &[TraceRecord]) -> std::io::Result<()> {
    let mut w = BufWriter::new(out);
    if jsonl {
        write_jsonl(&mut w, records)?;
    } else {
        write_chrome(&mut w, records)?;
    }
    w.flush()
}

/// Write `records` to a new file at `path`, for `--trace` and
/// `--trace-dir`.
fn write_trace(path: &Path, jsonl: bool, records: &[TraceRecord]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    write_records(file, jsonl, records).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn print_report(label: &str, cfg: &Config, r: &RunReport, json: bool) {
    if json {
        let latency: Vec<serde_json::Value> = r
            .latency
            .iter()
            .map(|l| {
                serde_json::json!({
                    "kind": kind_name(l.kind),
                    "count": l.count,
                    "mean_us": l.mean_us,
                    "p50_us": l.p50_us,
                    "p99_us": l.p99_us,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::json!({
                "version": REPORT_VERSION,
                "nic": label,
                "wall_ms": r.wall.as_ms_f64(),
                "hit_ratio": r.hit_ratio(),
                "messages": r.messages,
                "interrupts": r.interrupts(),
                "dma_bytes_to_board": r.dma_bytes_to_board(),
                "mean_breakdown_gcycles": serde_json::json!({
                    "compute": RunReport::gcycles(r.mean_breakdown().compute, cfg.nic.host_clock),
                    "overhead": RunReport::gcycles(r.mean_breakdown().overhead, cfg.nic.host_clock),
                    "delay": RunReport::gcycles(r.mean_breakdown().delay, cfg.nic.host_clock),
                }),
                "latency": serde_json::Value::Array(latency),
                "coll_combines": r.nic.iter().map(|n| n.coll_combines).sum::<u64>(),
                "coll_forwards": r.nic.iter().map(|n| n.coll_forwards).sum::<u64>(),
                "faults": serde_json::to_value(r.faults).unwrap_or(serde_json::Value::Null),
                "stages": r.stages.as_ref()
                    .and_then(|s| serde_json::to_value(s).ok())
                    .unwrap_or(serde_json::Value::Null),
            })
        );
        return;
    }
    let b = r.mean_breakdown();
    println!("--- {label} ---");
    println!("completion time     : {}", r.wall);
    println!("mean compute        : {}", b.compute);
    println!("mean synch overhead : {}", b.overhead);
    println!("mean synch delay    : {}", b.delay);
    println!("protocol messages   : {}", r.messages);
    println!("net cache hit ratio : {:.1}%", r.hit_ratio() * 100.0);
    println!("host interrupts     : {}", r.interrupts());
    println!("host->board DMA     : {} bytes", r.dma_bytes_to_board());
    let (combines, forwards) = r.nic.iter().fold((0u64, 0u64), |(c, f), n| {
        (c + n.coll_combines, f + n.coll_forwards)
    });
    if combines + forwards > 0 {
        println!("NIC collectives     : {combines} combines, {forwards} forwards");
    }
    for l in &r.latency {
        println!(
            "latency {:<14}: n={:<7} mean {:.2} us, p50 {:.2} us, p99 {:.2} us",
            kind_name(l.kind),
            l.count,
            l.mean_us,
            l.p50_us,
            l.p99_us
        );
    }
    if r.faults != cni::FaultStats::default() {
        let f = &r.faults;
        println!(
            "cells dropped       : {} ({} in brownouts), corrupted {}",
            f.cells_dropped, f.brownout_cells, f.cells_corrupted
        );
        println!(
            "crc failures        : {}, duplicates {}, ring overflows {}",
            f.crc_failures, f.duplicates, f.ring_overflows
        );
        println!(
            "retransmits         : {} ({} timeouts, {} fast), acks {}",
            f.retransmits, f.timeouts, f.fast_retransmits, f.acks_sent
        );
    }
    if let Some(t) = &r.trace {
        println!(
            "trace               : {} events recorded, {} dropped (ring {})",
            t.recorded, t.dropped, t.capacity
        );
    }
}

fn nic_label(cfg: &Config) -> &'static str {
    match cfg.nic_kind {
        NicKind::Cni => "cni",
        NicKind::Standard => "standard",
    }
}

/// The window of `--brownout LINK:START_US:END_US` (virtual
/// microseconds), if the flag is given.
fn brownout(args: &Args) -> Result<Option<BrownoutWindow>, String> {
    let Some(s) = value(args, "brownout") else {
        return Ok(None);
    };
    let parts: Vec<&str> = s.split(':').collect();
    let [link, start, end] = parts[..] else {
        return Err(format!("--brownout wants LINK:START_US:END_US, got {s:?}"));
    };
    let link = link
        .parse()
        .map_err(|_| format!("--brownout link must be an integer, got {link:?}"))?;
    let ps = |field, text: &str| {
        let us: Option<u64> = text.parse().ok();
        let err = || format!("--brownout {field} must be an integer (us) below 2^64 ps: {text:?}");
        us.and_then(|us| us.checked_mul(1_000_000)).ok_or_else(err)
    };
    let (start_ps, end_ps) = (ps("start", start)?, ps("end", end)?);
    Ok(Some(BrownoutWindow {
        link,
        start_ps,
        end_ps,
    }))
}

/// Execute `--resume PATH` / `--fork-at PATH`: rebuild the snapshot's
/// world, re-execute the run up to the checkpoint and finish it, so a
/// resume costs one plain run. A fork swaps the stored fault plan for
/// `fork_plan` after the checkpoint; a plain resume keeps the stored
/// configuration in full.
fn run_resume(path: &str, fork_plan: Option<FaultPlan>, json: bool) -> ExitCode {
    let snap = match read_snapshot(Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprint!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match fork_plan {
        None => snap.config,
        Some(plan) => snap.config.with_faults(plan),
    };
    eprintln!(
        "{} {} ({} procs, {}) from {} at {} events",
        fork_plan.map_or("resuming", |_| "forking"),
        snap.app.name(),
        cfg.procs,
        nic_label(&cfg),
        path,
        snap.events,
    );
    match snap.resume_with(cfg) {
        Ok(report) => {
            print_report(nic_label(&cfg), &cfg, &report, json);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprint!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// One sweep job under `--resume-dir`: resume from the newest usable
/// checkpoint if one exists (and its snapshot's app and configuration
/// still match the spec), else run fresh, checkpointing when `every > 0`.
/// Errors panic — the batch executor isolates them as that job's failure
/// record.
fn run_resumable_job(cfg: Config, app: App, every: u64, ck_dir: &Path, label: &str) -> RunReport {
    use serde::Serialize;
    if let Some(snap_path) = newest_snapshot(ck_dir) {
        match read_snapshot(&snap_path) {
            Ok(snap) if snap.app != app => {
                eprintln!("[resume] {label}: checkpoint was taken of a different app, rerunning")
            }
            // The ignored `engine_workers` field is not an experiment
            // axis: a snapshot whose stored config sets it (older builds
            // took `--engine-workers`) still resumes.
            Ok(snap)
                if snap
                    .config
                    .with_engine_workers(cfg.engine_workers)
                    .to_value()
                    == cfg.to_value() =>
            {
                match snap.resume_with(cfg) {
                    Ok(r) => {
                        eprintln!(
                            "[resume] {label}: resumed from {} ({} events)",
                            snap_path.display(),
                            snap.events
                        );
                        return r;
                    }
                    Err(e) => {
                        eprint!(
                            "[resume] {label}: checkpoint unusable, rerunning from scratch\n{e}"
                        )
                    }
                }
            }
            Ok(_) => eprintln!(
                "[resume] {label}: checkpoint was taken under a different config, rerunning"
            ),
            Err(e) => {
                eprint!("[resume] {label}: checkpoint unreadable, rerunning from scratch\n{e}")
            }
        }
    }
    if every > 0 {
        match run_app_checkpointed(cfg, app, every, ck_dir) {
            Ok(ck) => ck.report,
            Err(e) => panic!("{e}"),
        }
    } else {
        run_app(cfg, app)
    }
}

/// Execute `--sweep`: parse the spec, run every job on the worker
/// pool, print/persist the batch report. Per-run reports are bit-identical
/// to what the same spec produces under `--jobs 1` (or a plain single
/// run); only wall-clock changes with the worker count.
fn run_sweep(args: &Args, spec_path: &str, jsonl: bool) -> Result<ExitCode, String> {
    let jobs: usize = get(args, "jobs", cni_batch::default_jobs());
    let trace_dir = value(args, "trace-dir");
    let resume_dir = value(args, "resume-dir");
    let ck_every: u64 = get(args, "checkpoint-every", 0);
    if ck_every > 0 && resume_dir.is_none() {
        return Err("--checkpoint-every in sweep mode requires --resume-dir".into());
    }
    if resume_dir.is_some() && trace_dir.is_some() {
        return Err(
            "--resume-dir cannot be combined with --trace-dir (resumed jobs are untraced)".into(),
        );
    }
    for (what, dir) in [("trace", trace_dir), ("resume", resume_dir)] {
        if let Some(dir) = dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {what} dir {dir:?}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read sweep spec {spec_path:?}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let specs =
        sweep::parse_sweep(&text).map_err(|e| format!("bad sweep spec {spec_path:?}: {e}"))?;
    let pool = Pool::new(jobs);
    eprintln!(
        "sweep: {} run(s) on {} worker(s)",
        specs.len(),
        pool.workers()
    );
    let report = pool.run_batch(specs, |i, spec| {
        let cfg = spec.config;
        if let Some(dir) = &resume_dir {
            let dir = Path::new(dir);
            let report_path = job_trace_path(dir, i, &spec.label, "report.json");
            if let Ok(text) = std::fs::read_to_string(&report_path) {
                // `parse_json` reads this build's schema only: a report
                // another build wrote is rerun, like an unreadable one.
                match RunReport::parse_json(&text) {
                    Ok(r) => {
                        eprintln!("[resume] {}: already complete, skipping", spec.label);
                        return r;
                    }
                    Err(e) => eprintln!(
                        "[resume] {}: {} is not this build's report, rerunning: {e}",
                        spec.label,
                        report_path.display()
                    ),
                }
            }
            let ck_dir = job_trace_path(dir, i, &spec.label, "ck");
            let r = run_resumable_job(cfg, spec.workload, ck_every, &ck_dir, &spec.label);
            let text = serde_json::to_string(&r).expect("report serializes");
            if let Err(e) = cni_snap::write_atomic(&report_path, text.as_bytes()) {
                eprintln!("cannot persist {}: {e}", report_path.display());
            }
            return r;
        }
        match trace_dir {
            None => run_app(cfg, spec.workload),
            Some(dir) => {
                let sink = TraceSink::ring(1 << 20);
                let r = run_app_traced(cfg, spec.workload, sink.clone(), None);
                let ext = if jsonl { "jsonl" } else { "json" };
                let path = job_trace_path(Path::new(dir), i, &spec.label, ext);
                if let Err(e) = write_trace(&path, jsonl, &sink.drain()) {
                    eprintln!("{e}");
                }
                r
            }
        }
    });
    let pretty = || serde_json::to_string_pretty(&report).expect("batch report serializes");
    if let Some(out) = value(args, "out") {
        if let Err(e) = std::fs::write(out, pretty() + "\n") {
            eprintln!("cannot write {out:?}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if args.contains_key("json") {
        println!("{}", pretty());
    } else {
        println!(
            "{:>5} {:>28} {:>12} {:>10} {:>12} {:>10}",
            "job", "label", "wall(ms)", "hit(%)", "messages", "host(s)"
        );
        for j in &report.jobs {
            match &j.report {
                Some(r) => println!(
                    "{:>5} {:>28} {:>12.2} {:>10.1} {:>12} {:>10.2}",
                    j.index,
                    j.label,
                    r.wall.as_ms_f64(),
                    r.hit_ratio() * 100.0,
                    r.messages,
                    j.timing.wall_s
                ),
                None => println!(
                    "{:>5} {:>28} PANICKED: {}",
                    j.index,
                    j.label,
                    j.error.as_deref().unwrap_or("?")
                ),
            }
        }
        println!(
            "batch: {}/{} runs ok on {} worker(s); wall {:.2}s, serial-equivalent {:.2}s",
            report.completed(),
            report.jobs.len(),
            report.workers,
            report.wall_s,
            report.serial_wall_s()
        );
    }
    Ok(if report.completed() == report.jobs.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    run(&parse_args()).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

/// Pick the mode, refuse the flags it does not read, and run it. An
/// `Err` is a command line that cannot run, exit code 2.
fn run(args: &Args) -> Result<ExitCode, String> {
    if args.contains_key("help") {
        usage();
    }
    let (resume, fork) = (value(args, "resume"), value(args, "fork-at"));
    if resume.is_some() && fork.is_some() {
        return Err("--resume and --fork-at are mutually exclusive".into());
    }
    let mode = match (args.contains_key("sweep"), resume, fork, value(args, "app")) {
        (true, ..) => SWEEP,
        (_, Some(_), ..) => RESUME,
        (_, _, Some(_), _) => FORK,
        (.., Some("latency")) => LATENCY,
        (.., Some(_)) => RUN,
        (.., None) => usage(),
    };
    for name in args.keys() {
        if flag(name).is_some_and(|(_, modes)| !modes.contains(&mode)) {
            return Err(format!("--{name} cannot be combined with {mode}"));
        }
    }
    if args.contains_key("obs") && args.contains_key("metrics-interval-us") {
        return Err("--metrics-interval-us cannot be combined with --obs \
                    (which samples every 100 us)"
            .into());
    }
    for (name, partner, m) in PARTNERS {
        if m == mode && args.contains_key(name) && !args.contains_key(partner) {
            return Err(format!("--{name} is read only with --{partner}"));
        }
    }
    let jsonl = match value(args, "trace-format") {
        None | Some("chrome") => false,
        Some("jsonl") => true,
        Some(other) => {
            eprintln!("unknown trace format {other:?} (chrome or jsonl)");
            usage();
        }
    };
    if let Some(spec) = value(args, "sweep") {
        return run_sweep(args, spec, jsonl);
    }
    if let Some(path) = resume.or(fork) {
        let mut plan = sweep::parse_faults(&sweep::flag_entry(args))?;
        plan.brownouts[0] = brownout(args)?;
        let fork_plan = fork.map(|_| plan);
        return Ok(run_resume(path, fork_plan, args.contains_key("json")));
    }
    if mode == LATENCY {
        return run_latency(args);
    }
    run_single(args, jsonl)
}

/// `--app latency`: the one-way latency of one message size on both
/// interfaces, under the configuration the run flags describe.
fn run_latency(args: &Args) -> Result<ExitCode, String> {
    let mut entry = sweep::flag_entry(args);
    entry.insert("procs".into(), Value::from(2u64)); // the probe's two processors
    let mut base = sweep::parse_config(&entry)?;
    base.faults.brownouts[0] = brownout(args)?;
    let bytes: u32 = get(args, "bytes", 4096); // a message's length is a u32
    let p = cni_apps::experiments::latency_curve(base, &[bytes as usize], 5)[0];
    if args.contains_key("json") {
        println!(
            "{}",
            serde_json::json!({"bytes": p.bytes, "cni_us": p.cni_us, "std_us": p.std_us})
        );
    } else {
        println!(
            "{} bytes: CNI {:.1} us, standard {:.1} us ({:.1}% reduction)",
            p.bytes,
            p.cni_us,
            p.std_us,
            (1.0 - p.cni_us / p.std_us) * 100.0
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// A single run, or one per interface with `--compare`: the run flags
/// make a sweep entry, which the sweep parser reads.
fn run_single(args: &Args, jsonl: bool) -> Result<ExitCode, String> {
    let json = args.contains_key("json");
    let obs = args.contains_key("obs");
    let trace_path = value(args, "trace");
    let ck_every: u64 = get(args, "checkpoint-every", 0);
    if ck_every > 0 && (obs || trace_path.is_some()) {
        return Err(
            "--checkpoint-every cannot be combined with --obs or --trace \
                    (snapshots require an untraced run)"
                .into(),
        );
    }
    let spec = sweep::parse_entry(0, &Value::Object(sweep::flag_entry(args)))?;
    let (app, mut base) = (spec.workload, spec.config);
    base.faults.brownouts[0] = brownout(args)?;
    let configs = if !args.contains_key("compare") {
        vec![base]
    } else if args.contains_key("nic") {
        return Err("--nic cannot be combined with --compare (it runs both interfaces)".into());
    } else {
        vec![base.cni(), base.standard()]
    };
    let multi = configs.len() > 1;
    let dir = PathBuf::from(value(args, "checkpoint-dir").unwrap_or("cni-checkpoints"));
    let metrics_us: u32 = get(args, "metrics-interval-us", 100); // no u32 of us overflows ps
    for cfg in configs {
        let label = nic_label(&cfg);
        // A --compare run checkpoints each interface into its own
        // subdirectory so the snapshots cannot collide.
        let job_dir = if multi { dir.join(label) } else { dir.clone() };
        let (report, records, snapshots) = if ck_every > 0 {
            match run_app_checkpointed(cfg, app, ck_every, &job_dir) {
                Ok(ck) => (ck.report, None, Some(ck.snapshots.len())),
                Err(e) => {
                    eprint!("{e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        } else if obs {
            let (report, records) = run_app_obs(cfg, app);
            (report, Some(records), None)
        } else if trace_path.is_some() {
            // 2^20 events is plenty for the default workloads and keeps
            // even runaway runs bounded to a few hundred MB of JSON.
            let sink = TraceSink::ring(1 << 20);
            let interval = (metrics_us > 0).then(|| SimTime::from_us(metrics_us.into()));
            let report = run_app_traced(cfg, app, sink.clone(), interval);
            (report, Some(sink.drain()), None)
        } else {
            (run_app(cfg, app), None, None)
        };
        print_report(label, &cfg, &report, json);
        if let (Some(n), false) = (snapshots, json) {
            println!("checkpoints written : {n} under {}", job_dir.display());
        }
        if obs && !json {
            if let Some(records) = &records {
                print!("{}", cni_obs::render_analysis(records));
            }
        }
        if let (Some(path), Some(records)) = (trace_path, &records) {
            // A --compare run produces one trace per interface.
            let path = if multi {
                format!("{path}.{label}")
            } else {
                path.to_string()
            };
            if let Err(e) = write_trace(Path::new(&path), jsonl, records) {
                eprintln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
            if !json {
                println!("trace written       : {path} ({} events)", records.len());
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::{flag, write_records, EVERY_MODE, FLAGS, FORK, PARTNERS, RUN, USAGE};
    use cni_apps::sweep::{run_key, FAULT_KEYS, KNOWN_KEYS, SWITCH_KEYS};
    use std::collections::BTreeSet;
    use std::io::{self, Write};

    /// Every flag: [`FLAGS`] and the run keys, `_` written `-`.
    fn every_flag() -> Vec<String> {
        let run_flags = KNOWN_KEYS
            .into_iter()
            .filter(|key| *key != "label")
            .map(|key| key.replace('_', "-"));
        FLAGS
            .iter()
            .map(|f| f.0.to_string())
            .chain(run_flags)
            .collect()
    }

    /// The usage text documents every flag the parser takes, and the
    /// parser takes every flag the usage text documents (`--help` aside),
    /// so a removed flag cannot linger in one of them.
    #[test]
    fn usage_lists_exactly_the_known_flags() {
        let documented: BTreeSet<String> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .map(str::to_string)
            .collect();
        let known: BTreeSet<String> = every_flag()
            .into_iter()
            .filter(|flag| flag != "help")
            .collect();
        assert_eq!(documented, known);
    }

    /// Each flag is listed once and read by some mode; a run key's flag
    /// is a switch exactly when the key takes a boolean, a single run
    /// reads it, and `--fork-at` reads exactly the fault keys; every
    /// mode reads `--json`; and a flag and its partner are both read by
    /// the mode that pairs them.
    #[test]
    fn flag_tables_are_consistent() {
        let flags = every_flag();
        let unique: BTreeSet<&String> = flags.iter().collect();
        assert_eq!(unique.len(), flags.len(), "a flag is listed twice");
        for name in &flags {
            let (valued, modes) = flag(name).expect("a listed flag parses");
            assert!(!modes.is_empty(), "no mode reads --{name}");
            if let Some(key) = run_key(name) {
                assert_eq!(valued, !SWITCH_KEYS.contains(&key), "--{name}");
                assert!(modes.contains(&RUN), "a single run ignores --{name}");
                assert_eq!(modes.contains(&FORK), FAULT_KEYS.contains(&key), "--{name}");
            }
        }
        for key in SWITCH_KEYS.into_iter().chain(FAULT_KEYS) {
            assert!(KNOWN_KEYS.contains(&key), "{key} is no sweep key");
        }
        for (name, partner, mode) in PARTNERS {
            for f in [name, partner] {
                let read = flag(f).is_some_and(|(_, modes)| modes.contains(&mode));
                assert!(read, "{mode} does not read --{f}");
            }
        }
        assert_eq!(flag("json"), Some((false, EVERY_MODE)));
        assert_eq!(flag("label"), None, "a run's label is no flag");
        assert_eq!(flag("page_bytes"), None, "flags are written with -");
    }

    /// A writer that takes every byte but fails to flush them.
    struct FailingFlush;

    impl Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    /// The trace writer returns the error of its last flush, which a
    /// dropped `BufWriter` would throw away.
    #[test]
    fn a_trace_whose_flush_fails_is_an_error() {
        for jsonl in [false, true] {
            let err =
                write_records(FailingFlush, jsonl, &[]).expect_err("a failed flush is returned");
            assert_eq!(err.to_string(), "disk full", "jsonl: {jsonl}");
        }
    }
}
