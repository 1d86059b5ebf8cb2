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
    kind_name, BrownoutWindow, Config, FaultPlan, NicKind, RunReport, SimTime, TraceSink,
    REPORT_VERSION,
};
use cni_apps::checkpoint::{newest_snapshot, read_snapshot, run_app_checkpointed};
use cni_apps::cholesky::CholeskyMatrix;
use cni_apps::experiments::{run_app, run_app_obs, run_app_traced, App};
use cni_batch::Pool;
use cni_trace::export::{job_trace_path, write_chrome, write_jsonl};
use std::collections::HashMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The `--help` text. Plain newlines, not `\` continuations (which strip
/// the next line's leading whitespace), so option lines and their wrapped
/// descriptions keep their indentation.
const USAGE: &str = "\
usage: cni-run --app <jacobi|water|cholesky|latency> [options]
       cni-run --sweep <spec.json> [--jobs N] [options]

sweep mode (parallel batch over a JSON run list):
  --sweep PATH        JSON array of run objects; see docs of
                      cni_apps::sweep for the format
  --jobs N            worker threads (default: $CNI_JOBS, else
                      the machine's available parallelism)
  --out PATH          also write the batch report JSON to PATH
  --trace-dir DIR     record each run's events to its own file
                      DIR/<index>-<label>.<ext>
  --resume-dir DIR    persist per-job reports under DIR and skip
                      jobs a previous (interrupted) sweep already
                      completed; with --checkpoint-every, partial
                      jobs resume from their newest checkpoint
  --json              print the batch report as JSON

checkpoint / restore (single-run mode):
  --checkpoint-every N  write a crash-safe snapshot after every N
                      simulation events as DIR/ck-<events>.cnisnap
  --checkpoint-dir DIR  snapshot directory (default cni-checkpoints)
  --resume PATH       resume a run from a snapshot; the app and
                      topology come from the snapshot, not flags.
                      The finished report is byte-identical to the
                      uninterrupted run's
  --fork-at PATH      like --resume but a what-if branch: the
                      command line's fault flags replace the
                      snapshot's fault plan from this point on
  --brownout L:S:E    with --fork-at: total cell loss on link L
                      from S to E (virtual microseconds)

common options:
  --procs N           processors (default 8)
  --nic <cni|standard>  interface (default cni)
  --compare           run both interfaces and print both
  --page-bytes N      shared page size (default 2048)
  --msg-cache-bytes N Message Cache capacity (default 32768)
  --jumbo             unrestricted ATM cell size
  --topology LxDxU    2-level fat-tree: L leaf switches, D host
                      ports and U uplinks each (e.g. 4x16x16 =
                      64 hosts); `single` = one 32-port banyan
                      (the default). See TOPOLOGY.md.
  --tree-barrier      combining-tree barrier (extension)
  --collectives       NIC-resident barrier/release combining
                      (implies --tree-barrier; CNI only)
  --seed N            timing-jitter seed (workloads are fixed)
  --loss-prob P       per-cell drop probability in [0,1) (default 0)
  --corrupt-prob P    per-cell bit-corruption probability (default 0)
  --jitter-ps N       max per-cell delivery jitter in ps (default 0)
  --fault-seed N      fault-injection RNG seed (default 1)
  --json              machine-readable output
  --obs               causal span tracing + analysis: stage
                      decomposition, critical path, utilization
                      (uses the default 100 us metrics sampler)
  --trace PATH        record simulation events to PATH
  --trace-format F    chrome (default; Perfetto-loadable) | jsonl
  --metrics-interval-us N  metrics sample spacing in virtual us
                      (default 100; 0 disables the sampler)

jacobi:   --n N (grid, default 256)   --iters N (default 25)
water:    --molecules N (default 216) --steps N (default 2)
cholesky: --matrix <bcsstk14|bcsstk15> (default bcsstk14)
latency:  --bytes N (message size, default 4096)";

/// The flags that take no value.
const SWITCHES: [&str; 7] = [
    "compare",
    "jumbo",
    "json",
    "help",
    "obs",
    "tree-barrier",
    "collectives",
];

/// The flags that take a value.
const VALUED: [&str; 30] = [
    "app",
    "n",
    "iters",
    "molecules",
    "steps",
    "matrix",
    "bytes",
    "procs",
    "nic",
    "page-bytes",
    "msg-cache-bytes",
    "topology",
    "seed",
    "loss-prob",
    "corrupt-prob",
    "jitter-ps",
    "fault-seed",
    "brownout",
    "trace",
    "trace-format",
    "metrics-interval-us",
    "checkpoint-every",
    "checkpoint-dir",
    "resume",
    "fork-at",
    "sweep",
    "jobs",
    "out",
    "trace-dir",
    "resume-dir",
];

/// The flags that build the fault plan: a plain `--resume` keeps the
/// snapshot's plan, so it refuses them.
const FAULT_FLAGS: [&str; 5] = [
    "loss-prob",
    "corrupt-prob",
    "jitter-ps",
    "fault-seed",
    "brownout",
];

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        if SWITCHES.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
        } else if VALUED.contains(&key) {
            let Some(v) = args.next() else {
                eprintln!("missing value for --{key}");
                usage();
            };
            out.insert(key.to_string(), v);
        } else {
            eprintln!("unknown flag --{key}");
            usage();
        }
    }
    out
}

fn get<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    match args.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v:?}");
            usage();
        }),
    }
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

/// Parse `--brownout LINK:START_US:END_US` (virtual microseconds).
fn parse_brownout(s: &str) -> Result<BrownoutWindow, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [link, start, end] = parts[..] else {
        return Err(format!("--brownout wants LINK:START_US:END_US, got {s:?}"));
    };
    let link: u32 = link
        .parse()
        .map_err(|_| format!("--brownout link must be an integer, got {link:?}"))?;
    let start_us: u64 = start
        .parse()
        .map_err(|_| format!("--brownout start must be an integer (us), got {start:?}"))?;
    let end_us: u64 = end
        .parse()
        .map_err(|_| format!("--brownout end must be an integer (us), got {end:?}"))?;
    Ok(BrownoutWindow {
        link,
        start_ps: start_us * 1_000_000,
        end_ps: end_us * 1_000_000,
    })
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
        if fork_plan.is_some() {
            "forking"
        } else {
            "resuming"
        },
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
/// checkpoint if one exists (and its snapshot still matches the spec),
/// else run fresh, checkpointing when `every > 0`. Errors panic — the
/// batch executor isolates them as that job's failure record.
fn run_resumable_job(cfg: Config, app: App, every: u64, ck_dir: &Path, label: &str) -> RunReport {
    use serde::Serialize;
    if let Some(snap_path) = newest_snapshot(ck_dir) {
        match read_snapshot(&snap_path) {
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

/// Execute `--sweep`: parse the spec, run every job on a work-stealing
/// pool, print/persist the batch report. Per-run reports are bit-identical
/// to what the same spec produces under `--jobs 1` (or a plain single
/// run); only wall-clock changes with the worker count.
fn run_sweep(args: &HashMap<String, String>, spec_path: &str) -> ExitCode {
    let json = args.contains_key("json");
    let jobs: usize = get(args, "jobs", cni_batch::default_jobs());
    let trace_format = args
        .get("trace-format")
        .map(String::as_str)
        .unwrap_or("chrome");
    if !matches!(trace_format, "chrome" | "jsonl") {
        eprintln!("unknown trace format {trace_format:?} (chrome or jsonl)");
        usage();
    }
    let trace_dir = args.get("trace-dir").cloned();
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create trace dir {dir:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let resume_dir = args.get("resume-dir").cloned();
    let ck_every: u64 = get(args, "checkpoint-every", 0);
    if ck_every > 0 && resume_dir.is_none() {
        eprintln!("--checkpoint-every in sweep mode requires --resume-dir");
        return ExitCode::from(2);
    }
    if resume_dir.is_some() && trace_dir.is_some() {
        eprintln!("--resume-dir cannot be combined with --trace-dir (resumed jobs are untraced)");
        return ExitCode::from(2);
    }
    if let Some(dir) = &resume_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create resume dir {dir:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read sweep spec {spec_path:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = match cni_apps::sweep::parse_sweep(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad sweep spec {spec_path:?}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "sweep: {} run(s) on {} worker(s)",
        specs.len(),
        Pool::new(jobs).workers()
    );
    let ext = if trace_format == "chrome" {
        "json"
    } else {
        "jsonl"
    };
    let report = Pool::new(jobs).run_batch(specs, |i, spec| {
        let cfg = spec.effective_config();
        if let Some(dir) = &resume_dir {
            let dir = Path::new(dir);
            let report_path = job_trace_path(dir, i, &spec.label, "report.json");
            if let Ok(text) = std::fs::read_to_string(&report_path) {
                match serde_json::from_str::<RunReport>(&text) {
                    Ok(r) => {
                        eprintln!("[resume] {}: already complete, skipping", spec.label);
                        return r;
                    }
                    Err(e) => eprintln!(
                        "[resume] {}: ignoring unreadable {}: {e}",
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
        match &trace_dir {
            None => run_app(cfg, spec.workload),
            Some(dir) => {
                let sink = TraceSink::ring(1 << 20);
                let r = run_app_traced(cfg, spec.workload, sink.clone(), None);
                let path = job_trace_path(Path::new(dir), i, &spec.label, ext);
                let records = sink.drain();
                match std::fs::File::create(&path) {
                    Err(e) => eprintln!("cannot create {path:?}: {e}"),
                    Ok(f) => {
                        let mut w = BufWriter::new(f);
                        let res = match trace_format {
                            "chrome" => write_chrome(&mut w, &records),
                            _ => write_jsonl(&mut w, &records),
                        };
                        if let Err(e) = res {
                            eprintln!("cannot write {path:?}: {e}");
                        }
                    }
                }
                r
            }
        }
    });
    if let Some(out) = args.get("out") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => {
                if let Err(e) = std::fs::write(out, s + "\n") {
                    eprintln!("cannot write {out:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("cannot serialize batch report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("batch report serializes")
        );
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
    if report.completed() == report.jobs.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.contains_key("help") {
        usage();
    }
    if let Some(spec_path) = args.get("sweep") {
        return run_sweep(&args, &spec_path.clone());
    }
    let json = args.contains_key("json");
    let mut base = Config::paper_default();
    if let Some(s) = args.get("topology") {
        match s.parse() {
            Ok(t) => base.atm.topology = t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    base.procs = get(&args, "procs", 8);
    let mut base = base
        .with_page_bytes(get(&args, "page-bytes", 2048))
        .with_msg_cache_bytes(get(&args, "msg-cache-bytes", 32 * 1024));
    base.seed = get(&args, "seed", 0x5EED_u64);
    if args.contains_key("jumbo") {
        base = base.with_unrestricted_cells();
    }
    if args.contains_key("tree-barrier") {
        base = base.with_tree_barrier();
    }
    if args.contains_key("collectives") {
        base = base.with_collectives();
    }
    let mut plan = FaultPlan::none();
    plan.drop_prob = get(&args, "loss-prob", 0.0);
    plan.corrupt_prob = get(&args, "corrupt-prob", 0.0);
    plan.jitter_ps = get(&args, "jitter-ps", 0);
    plan.seed = get(&args, "fault-seed", 1);
    if let Some(b) = args.get("brownout") {
        match parse_brownout(b) {
            Ok(w) => plan.brownouts[0] = Some(w),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    base = base.with_faults(plan);
    if let Err(e) = base.check() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::from(2);
    }

    let (resume, fork) = (args.get("resume"), args.get("fork-at"));
    if let Some(path) = resume.or(fork) {
        if resume.is_some() && fork.is_some() {
            eprintln!("--resume and --fork-at are mutually exclusive");
            return ExitCode::from(2);
        }
        // Refuse flags a resumed run would otherwise drop without a word:
        // the tail is untraced and writes no checkpoints, and a plain
        // resume keeps the snapshot's fault plan.
        let mode = if resume.is_some() {
            "--resume"
        } else {
            "--fork-at"
        };
        let mut ignored = vec!["trace", "obs", "checkpoint-every"];
        if resume.is_some() {
            ignored.extend(FAULT_FLAGS);
        }
        if let Some(flag) = ignored.into_iter().find(|f| args.contains_key(*f)) {
            let why = if FAULT_FLAGS.contains(&flag) {
                "a resume keeps the snapshot's fault plan; use --fork-at to change it"
            } else {
                "a resumed run is untraced and writes no checkpoints"
            };
            eprintln!("--{flag} cannot be combined with {mode} ({why})");
            return ExitCode::from(2);
        }
        let fork_plan = fork.is_some().then_some(plan);
        return run_resume(path, fork_plan, json);
    }

    let app_name = args
        .get("app")
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    if app_name == "latency" {
        let bytes: usize = get(&args, "bytes", 4096);
        let pts = cni_apps::experiments::latency_curve(base, &[bytes], 5);
        let p = pts[0];
        if json {
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
        return ExitCode::SUCCESS;
    }

    let app = match app_name {
        "jacobi" => App::Jacobi {
            n: get(&args, "n", 256),
            iters: get(&args, "iters", 25),
        },
        "water" => App::Water {
            molecules: get(&args, "molecules", 216),
            steps: get(&args, "steps", 2),
        },
        "cholesky" => App::Cholesky {
            matrix: match args.get("matrix").map(String::as_str).unwrap_or("bcsstk14") {
                "bcsstk14" => CholeskyMatrix::Bcsstk14,
                "bcsstk15" => CholeskyMatrix::Bcsstk15,
                other => {
                    eprintln!("unknown matrix {other:?}");
                    usage();
                }
            },
        },
        other => {
            eprintln!("unknown app {other:?}");
            usage();
        }
    };

    let kinds: Vec<(&str, Config)> = if args.contains_key("compare") {
        vec![("cni", base.cni()), ("standard", base.standard())]
    } else {
        match args.get("nic").map(String::as_str).unwrap_or("cni") {
            "cni" => vec![("cni", base.cni())],
            "standard" => vec![("standard", base.standard())],
            other => {
                eprintln!("unknown nic {other:?}");
                usage();
            }
        }
    };
    let trace_path = args.get("trace").cloned();
    let trace_format = args
        .get("trace-format")
        .map(String::as_str)
        .unwrap_or("chrome");
    if !matches!(trace_format, "chrome" | "jsonl") {
        eprintln!("unknown trace format {trace_format:?} (chrome or jsonl)");
        usage();
    }
    let metrics_us: u64 = get(&args, "metrics-interval-us", 100);

    let obs = args.contains_key("obs");
    let multi = kinds.len() > 1;

    let ck_every: u64 = get(&args, "checkpoint-every", 0);
    if ck_every > 0 {
        if obs || trace_path.is_some() {
            eprintln!(
                "--checkpoint-every cannot be combined with --obs or --trace \
                 (snapshots require an untraced run)"
            );
            return ExitCode::from(2);
        }
        let dir = PathBuf::from(
            args.get("checkpoint-dir")
                .cloned()
                .unwrap_or_else(|| "cni-checkpoints".to_string()),
        );
        for (label, cfg) in kinds {
            // A --compare run checkpoints each interface into its own
            // subdirectory so the snapshots cannot collide.
            let job_dir = if multi { dir.join(label) } else { dir.clone() };
            match run_app_checkpointed(cfg, app, ck_every, &job_dir) {
                Err(e) => {
                    eprint!("{e}");
                    return ExitCode::FAILURE;
                }
                Ok(ck) => {
                    print_report(label, &cfg, &ck.report, json);
                    if !json {
                        println!(
                            "checkpoints written : {} under {}",
                            ck.snapshots.len(),
                            job_dir.display()
                        );
                    }
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    for (label, cfg) in kinds {
        let (report, records) = if obs {
            let (report, records) = run_app_obs(cfg, app);
            (report, Some(records))
        } else if trace_path.is_some() {
            // 2^20 events is plenty for the default workloads and keeps
            // even runaway runs bounded to a few hundred MB of JSON.
            let sink = TraceSink::ring(1 << 20);
            let interval = (metrics_us > 0).then(|| SimTime::from_us(metrics_us));
            let report = run_app_traced(cfg, app, sink.clone(), interval);
            (report, Some(sink.drain()))
        } else {
            (run_app(cfg, app), None)
        };
        print_report(label, &cfg, &report, json);
        if obs && !json {
            if let Some(records) = &records {
                print!("{}", cni_obs::render_analysis(records));
            }
        }
        if let (Some(path), Some(records)) = (&trace_path, &records) {
            // A --compare run produces one trace per interface.
            let path = if multi {
                format!("{path}.{label}")
            } else {
                path.clone()
            };
            let file = match std::fs::File::create(&path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {path:?}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut w = BufWriter::new(file);
            let res = match trace_format {
                "chrome" => write_chrome(&mut w, records),
                _ => write_jsonl(&mut w, records),
            };
            if let Err(e) = res {
                eprintln!("cannot write {path:?}: {e}");
                return ExitCode::FAILURE;
            }
            if !json {
                println!("trace written       : {path} ({} events)", records.len());
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{FAULT_FLAGS, SWITCHES, USAGE, VALUED};
    use std::collections::BTreeSet;

    /// The usage text documents every flag the parser takes, and the
    /// parser takes every flag the usage text documents (`--help` aside),
    /// so a removed flag cannot linger in one of them.
    #[test]
    fn usage_lists_exactly_the_known_flags() {
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let known: BTreeSet<&str> = SWITCHES
            .iter()
            .chain(&VALUED)
            .copied()
            .filter(|flag| *flag != "help")
            .collect();
        assert_eq!(documented, known);
    }

    /// A flag is a switch or takes a value, never both, and the fault
    /// flags a plain `--resume` refuses all take values.
    #[test]
    fn flag_tables_are_consistent() {
        let switches: BTreeSet<&str> = SWITCHES.into_iter().collect();
        let valued: BTreeSet<&str> = VALUED.into_iter().collect();
        assert_eq!(switches.len(), SWITCHES.len(), "a switch is listed twice");
        assert_eq!(valued.len(), VALUED.len(), "a valued flag is listed twice");
        assert!(switches.is_disjoint(&valued), "{switches:?} / {valued:?}");
        for flag in FAULT_FLAGS {
            assert!(valued.contains(flag), "fault flag --{flag} takes no value");
        }
    }
}
