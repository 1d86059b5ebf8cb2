//! `cni-run` refuses input it cannot honour with exit code 2 and a
//! message, instead of panicking or silently dropping it: configurations
//! that fail `Config::check`, from flags or a sweep file, flags it does
//! not know, and flags a resumed or forked run would ignore.

use std::path::PathBuf;
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
