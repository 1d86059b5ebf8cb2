//! `cni-run` refuses input it cannot honour with exit code 2 and a
//! message, instead of panicking or silently dropping it: configurations
//! that fail `Config::check`, from flags or a sweep file, values past
//! their bounds, flags it does not know, and flags its mode does not
//! read. A single run's flags describe the same run as a one-entry
//! sweep: both write the same trace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_cni-run");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cni-cli-flags-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("cni-run runs")
}

fn assert_refused(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains(needle), "{what}: {stderr}");
}

#[test]
fn invalid_configuration_flags_exit_2() {
    for (flags, needle) in [
        (["--page-bytes", "0"], "page_bytes"),
        (["--procs", "0"], "procs"),
        (["--procs", "9999"], "procs"),
        (["--loss-prob", "1.5"], "drop_prob"),
        (["--corrupt-prob", "1"], "corrupt_prob"),
        (["--engine-workers", "2"], "engine-workers"),
        (["--loss-prb", "0.05"], "loss-prb"),
        (
            ["--msg-cache-bytes", "1000000000000000000"],
            "msg_cache_bytes",
        ),
    ] {
        let mut args = vec!["--app", "jacobi", "--n", "16", "--iters", "1"];
        args.extend(flags);
        assert_refused(&run(&args), needle, &flags.join(" "));
    }
}

/// A command line the parser cannot read exits 2 with the usage text and
/// a message naming what it could not read.
#[test]
fn malformed_command_lines_exit_2_with_usage() {
    for (args, needle) in [
        (
            &["--app", "jacobi", "--bogus", "1"][..],
            "unknown flag --bogus",
        ),
        (&["--app", "jacobi", "--n"][..], "missing value for --n"),
        (&["--app", "jacobi", "16"][..], "unexpected argument \"16\""),
    ] {
        let out = run(args);
        assert_refused(&out, needle, &args.join(" "));
        assert_refused(&out, "usage: cni-run", &args.join(" "));
    }
}

/// Older builds selected a parallel engine with `--engine-workers`. Every
/// mode that took it (a single run, a sweep and a resume) now refuses it
/// by name instead of running without it.
#[test]
fn engine_workers_is_refused_in_every_mode() {
    let dir = tmp_dir("engine-workers");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, r#"[{"app": "jacobi", "n": 16, "iters": 1}]"#).unwrap();
    let ck_dir = dir.join("ck");
    let out = Command::new(EXE)
        .args(["--app", "jacobi", "--n", "16", "--iters", "3", "--json"])
        .args(["--checkpoint-every", "80", "--checkpoint-dir"])
        .arg(&ck_dir)
        .output()
        .expect("checkpointed run");
    assert!(out.status.success());
    let ck = ck_dir.join("ck-000000000080.cnisnap");
    for mode in [
        &["--app", "jacobi", "--n", "16", "--iters", "1"][..],
        &["--sweep", spec.to_str().unwrap()][..],
        &["--resume", ck.to_str().unwrap()][..],
    ] {
        let mut args = mode.to_vec();
        args.extend(["--engine-workers", "2"]);
        assert_refused(
            &run(&args),
            "unknown flag --engine-workers",
            &args.join(" "),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An app size that would abort the process when the app is built exits
/// 2 instead, from a flag or from any entry of a sweep file.
#[test]
fn invalid_app_sizes_exit_2() {
    for (flags, needle) in [
        (["--app", "jacobi", "--n", "4294967295"], "`n` = 4294967295"),
        (["--app", "jacobi", "--n", "0"], "`n` must be at least 1"),
        (["--app", "water", "--molecules", "0"], "`molecules`"),
    ] {
        assert_refused(&run(&flags), needle, &flags.join(" "));
    }
    let dir = tmp_dir("app-size");
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"[{"app":"jacobi","n":16,"iters":1},{"app":"jacobi","n":4294967295,"iters":1}]"#,
    )
    .unwrap();
    let out = run(&["--sweep", spec.to_str().unwrap()]);
    assert_refused(&out, "run 1: `n` = 4294967295", "sweep with n = 2^32 - 1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_sweep_config_exits_2() {
    let dir = tmp_dir("sweep");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, r#"[{"app": "jacobi", "n": 16, "page_bytes": 0}]"#).unwrap();
    let out = run(&["--sweep", spec.to_str().unwrap()]);
    assert_refused(&out, "page_bytes", "sweep with page_bytes 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_and_fork_refuse_flags_they_would_ignore() {
    let dir = tmp_dir("resume");
    let ck_dir = dir.join("ck");
    let out = Command::new(EXE)
        .args(["--app", "jacobi", "--n", "16", "--iters", "3", "--json"])
        .args(["--checkpoint-every", "80", "--checkpoint-dir"])
        .arg(&ck_dir)
        .output()
        .expect("checkpointed run");
    assert!(out.status.success());
    let ck = ck_dir.join("ck-000000000080.cnisnap");
    let ck = ck.to_str().unwrap();
    let trace = dir.join("t.json");
    let trace = trace.to_str().unwrap();

    for mode in ["--resume", "--fork-at"] {
        for extra in [
            &["--trace", trace][..],
            &["--obs"][..],
            &["--checkpoint-every", "10"][..],
        ] {
            let mut args = vec![mode, ck];
            args.extend(extra);
            assert_refused(&run(&args), extra[0], &args.join(" "));
        }
    }
    assert!(!dir.join("t.json").exists(), "a refused run wrote a trace");
    for fault in [
        &["--loss-prob", "0.02"][..],
        &["--corrupt-prob", "0.01"][..],
        &["--jitter-ps", "100"][..],
        &["--fault-seed", "7"][..],
        &["--brownout", "1:40:1000"][..],
    ] {
        let mut args = vec!["--resume", ck];
        args.extend(fault);
        assert_refused(&run(&args), "--fork-at", &args.join(" "));
    }
    // A fork takes the fault flags; a plain resume takes none of the
    // refused flags.
    assert!(run(&["--fork-at", ck, "--loss-prob", "0.02"])
        .status
        .success());
    assert!(run(&["--resume", ck, "--json"]).status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint of a 4-processor Jacobi run at event 80, under `dir`.
fn jacobi_checkpoint(dir: &Path) -> PathBuf {
    let ck_dir = dir.join("ck");
    let out = Command::new(EXE)
        .args([
            "--app", "jacobi", "--n", "16", "--iters", "3", "--procs", "4",
        ])
        .args(["--json", "--checkpoint-every", "80", "--checkpoint-dir"])
        .arg(&ck_dir)
        .output()
        .expect("checkpointed run");
    assert!(out.status.success());
    ck_dir.join("ck-000000000080.cnisnap")
}

/// Every mode refuses each flag it does not read, alone or among
/// others, and names it: a sweep takes its runs from the spec, a single
/// run is not a sweep, a resume takes its run from the snapshot, a fork
/// only its fault plan from the command line, and the latency probe runs
/// 2 processors on both interfaces, untraced. Nothing runs, so nothing
/// is written.
#[test]
fn each_mode_refuses_the_flags_it_does_not_read() {
    let dir = tmp_dir("modes");
    let spec = dir.join("s.json");
    std::fs::write(&spec, r#"[{"app": "jacobi", "n": 16, "iters": 1}]"#).unwrap();
    let ck = jacobi_checkpoint(&dir);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (foo, td, rd, lat, x) = (
        path("foo.json"),
        path("td"),
        path("rd"),
        path("lat.json"),
        path("x"),
    );
    let cases: [(&[&str], &[&[&str]]); 5] = [
        (
            &["--sweep", spec.to_str().unwrap()],
            &[
                &["--procs", "16"],
                &["--nic", "standard"],
                &["--obs"],
                &["--compare"],
                &["--metrics-interval-us", "5"],
                &["--checkpoint-dir", &x],
                &["--seed", "9"],
            ],
        ),
        (
            &[
                "--app", "jacobi", "--n", "16", "--iters", "1", "--procs", "4",
            ],
            &[
                &["--jobs", "3"],
                &["--out", &foo],
                &["--trace-dir", &td],
                &["--resume-dir", &rd],
            ],
        ),
        (
            &["--resume", ck.to_str().unwrap()],
            &[
                &["--procs", "16"],
                &["--n", "99"],
                &["--nic", "standard"],
                &["--jobs", "4"],
            ],
        ),
        (
            &["--fork-at", ck.to_str().unwrap(), "--loss-prob", "0.01"],
            &[&["--app", "water"], &["--compare"]],
        ),
        (
            &["--app", "latency", "--bytes", "512"],
            &[
                &["--trace", &lat],
                &["--obs"],
                &["--nic", "standard"],
                &["--compare"],
                &["--procs", "4"],
                &["--n", "64"],
            ],
        ),
    ];
    for (mode, refused) in cases {
        let mut all = mode.to_vec();
        all.extend(refused.iter().copied().flatten());
        let out = run(&all);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: {stderr}", all.join(" "));
        assert!(
            refused
                .iter()
                .any(|f| stderr.contains(&format!("{} cannot be combined with", f[0]))),
            "{}: {stderr}",
            all.join(" ")
        );
        for flag in refused {
            let mut args = mode.to_vec();
            args.extend(*flag);
            let needle = format!("{} cannot be combined with", flag[0]);
            assert_refused(&run(&args), &needle, &args.join(" "));
        }
    }
    for written in [&foo, &td, &rd, &lat, &x] {
        assert!(
            !Path::new(written).exists(),
            "a refused run wrote {written}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The latency probe runs 2 processors whatever the topology, so it
/// refuses `--procs` and runs on a 4-host fat-tree.
#[test]
fn the_latency_probe_runs_on_a_four_host_fabric() {
    let out = run(&[
        "--app",
        "latency",
        "--bytes",
        "512",
        "--topology",
        "2x2x2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A value past its field's bound exits 2 and names the field: a
/// brownout or a metrics interval whose microseconds overflow
/// picoseconds (a debug build panicked, a release build wrapped), a
/// jitter longer than the longest retransmission timeout, under which no
/// frame arrives before its resends run out, and a latency message
/// longer than a `u32` (it was truncated, 2^32 bytes to 0).
#[test]
fn values_past_their_bounds_exit_2() {
    for (flags, needle) in [
        (
            &["--brownout", "1:18446744073709551:18446744073709552"][..],
            "--brownout start",
        ),
        (
            &["--brownout", "1:0:18446744073709552"][..],
            "--brownout end",
        ),
        (&["--jitter-ps", "2000000001"][..], "jitter_ps"),
        (
            &[
                "--trace",
                "t.json",
                "--metrics-interval-us",
                "18446744073709551615",
            ][..],
            "--metrics-interval-us",
        ),
    ] {
        let mut args = vec!["--app", "jacobi", "--n", "16", "--iters", "1"];
        args.extend(flags);
        assert_refused(&run(&args), needle, &flags.join(" "));
    }
    let latency = ["--app", "latency", "--bytes", "4294967296"];
    assert_refused(&run(&latency), "--bytes", "--bytes 4294967296");
}

/// A single run and the one-entry sweep of the same run write
/// byte-identical traces.
#[test]
fn a_single_run_and_its_one_entry_sweep_write_the_same_trace() {
    let dir = tmp_dir("same-trace");
    let single = dir.join("a.jsonl");
    let out = Command::new(EXE)
        .args([
            "--app", "jacobi", "--n", "16", "--iters", "2", "--procs", "4",
        ])
        .args(["--loss-prob", "0.02", "--fault-seed", "3", "--trace"])
        .arg(&single)
        .args(["--trace-format", "jsonl", "--metrics-interval-us", "0"])
        .output()
        .expect("single run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spec = dir.join("s.json");
    std::fs::write(
        &spec,
        r#"[{"app":"jacobi","n":16,"iters":2,"procs":4,"loss_prob":0.02,"fault_seed":3}]"#,
    )
    .unwrap();
    let trace_dir = dir.join("d");
    let out = Command::new(EXE)
        .arg("--sweep")
        .arg(&spec)
        .args(["--trace-format", "jsonl", "--trace-dir"])
        .arg(&trace_dir)
        .output()
        .expect("sweep");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let single = std::fs::read(&single).expect("the single run's trace");
    let swept = cni_trace::export::job_trace_path(&trace_dir, 0, "000-jacobi-4p-cni", "jsonl");
    let swept = std::fs::read(&swept).expect("the sweep's trace");
    assert!(!single.is_empty());
    assert!(single == swept, "the traces differ");
    let _ = std::fs::remove_dir_all(&dir);
}
