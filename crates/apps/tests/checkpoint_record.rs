//! The checkpoint file as input from outside: a damaged file, a resealed
//! payload with a flipped byte or an extreme number, a stored
//! configuration no cluster can be built from, or a resume under another
//! configuration is refused with an error, never a panic. A checkpoint an
//! older build wrote with `--engine-workers` still resumes, and fault
//! probabilities survive the file bit for bit.

use cni::config::MAX_DURATION;
use cni::{Config, FaultPlan, RunReport, SimTime};
use cni_apps::checkpoint::{read_snapshot, run_app_checkpointed};
use cni_apps::experiments::App;
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const APP: App = App::Jacobi { n: 16, iters: 3 };

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cni-ck-record-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn json(r: &RunReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// The bytes of a Jacobi-8 checkpoint file taken at event 160, and the
/// run's report, made once.
fn checkpoint() -> &'static (Vec<u8>, String) {
    static CK: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    CK.get_or_init(|| {
        let dir = tmp_dir("source");
        let cfg = Config::paper_default().with_procs(8);
        let run = run_app_checkpointed(cfg, APP, 80, &dir).expect("checkpointed run");
        let bytes = std::fs::read(&run.snapshots[1]).expect("checkpoint reads");
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, json(&run.report))
    })
}

/// `bytes` written to `dir/name`.
fn write(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("checkpoint copy writes");
    path
}

/// Rewrite the stored configuration of `src` through `edit` into a new,
/// validly sealed file `dst`.
fn with_stored_config(src: &Path, dst: &Path, edit: impl Fn(&mut Config)) {
    let mut payload = cni_snap::read_value(src).expect("checkpoint reads");
    let meta = match &mut payload {
        Value::Object(m) => m.get_mut("meta"),
        _ => None,
    };
    let Some(Value::Object(meta)) = meta else {
        panic!("payload has a meta object");
    };
    let mut cfg: Config =
        serde::Deserialize::from_value(meta.get("config").expect("meta has a config"))
            .expect("stored config parses");
    edit(&mut cfg);
    meta.insert("config".into(), cfg.to_value());
    cni_snap::write_value(dst, &payload).expect("rewritten checkpoint writes");
}

/// Stored configurations that `World::new` would panic on, or abort on,
/// or that would overflow simulated time in the run, are refused when the
/// file is read: a probability out of range, no processors, more
/// processors than the fabric has hosts, a zero page size (which divides
/// by zero sizing the Message Cache), a Message Cache too large to
/// allocate, cache lines `NodeSpace::new` refuses, a zero cell payload, a
/// link rate of zero or one whose bits per second overflow, and a cycle
/// cost, clock period or switch latency longer than one second. A cost
/// of exactly one second is read.
#[test]
fn invalid_stored_configs_are_refused_when_read() {
    let dir = tmp_dir("configs");
    let src = write(&dir, "ck.cnisnap", &checkpoint().0);
    type Edit = fn(&mut Config);
    let cases: [(&str, &str, Edit); 13] = [
        ("drop", "drop_prob", |c| c.faults.drop_prob = 1.5),
        ("procs0", "procs", |c| c.procs = 0),
        ("procs9999", "procs", |c| c.procs = 9999),
        ("page0", "page_bytes", |c| c.page_bytes = 0),
        ("cache1e18", "msg_cache_bytes", |c| {
            c.nic.msg_cache_bytes = 1_000_000_000_000_000_000
        }),
        ("line24", "cache_line_bytes", |c| {
            c.nic.cache_line_bytes = 24
        }),
        ("line4096", "cache_line_bytes", |c| {
            c.nic.cache_line_bytes = 4096
        }),
        ("payload0", "cell_payload", |c| c.atm.cell_payload = Some(0)),
        ("mbps0", "link_mbps", |c| c.atm.link_mbps = 0),
        ("mbps_overflow", "link_mbps", |c| {
            c.atm.link_mbps = u64::MAX / 1000
        }),
        ("trap2^62", "costs.fault_trap_cycles", |c| {
            c.costs.fault_trap_cycles = 1 << 62
        }),
        ("period2^62", "nic.host_clock", |c| {
            c.nic.host_clock = clock(1 << 62)
        }),
        ("switch_max", "atm.switch_latency", |c| {
            c.atm.switch_latency = SimTime::MAX
        }),
    ];
    for (name, needle, edit) in cases {
        let path = dir.join(format!("{name}.cnisnap"));
        with_stored_config(&src, &path, edit);
        let err = read_snapshot(&path).expect_err(name);
        assert!(err.starts_with("error:"), "not a diagnostic: {err}");
        assert!(err.contains(needle), "{name}: {err}");
        let out = Command::new(env!("CARGO_BIN_EXE_cni-run"))
            .arg("--resume")
            .arg(&path)
            .output()
            .expect("cni-run runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("error:"), "{name}: {stderr}");
    }
    let edge = dir.join("trap1s.cnisnap");
    with_stored_config(&src, &edge, |c| {
        c.costs.fault_trap_cycles = MAX_DURATION.as_ps() / c.nic.host_clock.period_ps()
    });
    read_snapshot(&edge).expect("a one-second cost is read");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cni-run --resume --json` on `path`: its exit code and stdout.
fn resume_json(path: &Path) -> (Option<i32>, Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cni-run"))
        .arg("--resume")
        .arg(path)
        .arg("--json")
        .output()
        .expect("cni-run runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), out.stdout, stderr)
}

/// The object at `path` in a checkpoint's payload.
fn object_at<'a>(payload: &'a mut Value, path: &[&str]) -> &'a mut serde::Map {
    path.iter()
        .try_fold(payload, |v, k| v.as_object_mut()?.get_mut(k))
        .and_then(Value::as_object_mut)
        .unwrap_or_else(|| panic!("payload has an object at {path:?}"))
}

/// Bytes per bus word are a constant, not a stored field: a file that
/// stores `word_bytes` (every file older builds wrote, or a forged 0,
/// which divided by zero) resumes to the untouched file's report.
#[test]
fn a_stored_word_bytes_is_ignored() {
    let dir = tmp_dir("word-bytes");
    let src = write(&dir, "ck.cnisnap", &checkpoint().0);
    let mut payload = cni_snap::read_value(&src).expect("checkpoint reads");
    let nic = object_at(&mut payload, &["meta", "config", "nic"]);
    assert!(!nic.contains_key("word_bytes"), "the field is written");
    nic.insert("word_bytes".into(), Value::from(0u64));
    let forged = dir.join("word_bytes0.cnisnap");
    cni_snap::write_value(&forged, &payload).expect("rewritten checkpoint writes");
    let (code, stdout, stderr) = resume_json(&forged);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout == resume_json(&src).1, "the resume diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The go-back-N window, frame size, timeouts and receive ring are
/// constants, not stored fields: a file whose two stored plans (the
/// configuration's and the engine record's) carry them, as every file
/// older builds wrote does, or carry a forged `window` of 0, resumes to
/// the untouched file's report.
#[test]
fn stored_protocol_values_are_ignored() {
    let dir = tmp_dir("protocol");
    let src = write(&dir, "ck.cnisnap", &checkpoint().0);
    let (code, want, stderr) = resume_json(&src);
    assert_eq!(code, Some(0), "{stderr}");
    for (name, window) in [("older", 8u64), ("window0", 0)] {
        let mut payload = cni_snap::read_value(&src).expect("checkpoint reads");
        for path in [&["meta", "config", "faults"][..], &["state", "faults"]] {
            let plan = object_at(&mut payload, path);
            assert!(!plan.contains_key("window"), "the field is written");
            for (k, v) in [
                ("rx_ring_frames", 64),
                ("rto_base_ps", 100_000_000),
                ("rto_cap_ps", 2_000_000_000),
                ("window", window),
                ("max_frame_bytes", 2048),
            ] {
                plan.insert(k.into(), Value::from(v));
            }
        }
        let path = dir.join(format!("{name}.cnisnap"));
        cni_snap::write_value(&path, &payload).expect("rewritten checkpoint writes");
        let (code, stdout, stderr) = resume_json(&path);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        assert!(stdout == want, "{name}: the resume diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored fault plan whose jitter outlasts the longest retransmission
/// timeout is refused when the file is read: no frame would arrive
/// before its resends ran out.
#[test]
fn a_stored_jitter_past_the_rto_cap_is_refused() {
    let dir = tmp_dir("jitter");
    let src = write(&dir, "ck.cnisnap", &checkpoint().0);
    let path = dir.join("jitter.cnisnap");
    with_stored_config(&src, &path, |c| c.faults.jitter_ps = i64::MAX as u64);
    let err = read_snapshot(&path).expect_err("a huge jitter is read");
    assert!(err.starts_with("error:"), "not a diagnostic: {err}");
    assert!(err.contains("jitter_ps"), "{err}");
    let (code, _, stderr) = resume_json(&path);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clock whose period is `ps` picoseconds, through its serde form.
fn clock(ps: u64) -> cni_sim::Clock {
    serde::Deserialize::from_value(&serde_json::json!({ "period_ps": ps })).expect("clock parses")
}

/// Stored app sizes that would abort the process when the resume builds
/// the app are refused when the file is read: a grid or a molecule count
/// whose shared segment overflows or exceeds the bound, or is empty.
#[test]
fn invalid_stored_app_sizes_are_refused_when_read() {
    let dir = tmp_dir("apps");
    let src = write(&dir, "ck.cnisnap", &checkpoint().0);
    for (name, needle, app) in [
        (
            "n2^32",
            "`n` = 4294967295",
            App::Jacobi {
                n: (1 << 32) - 1,
                iters: 3,
            },
        ),
        (
            "n2^63",
            "`n`",
            App::Jacobi {
                n: (1 << 63) - 1,
                iters: 3,
            },
        ),
        (
            "n0",
            "`n` must be at least 1",
            App::Jacobi { n: 0, iters: 3 },
        ),
        (
            "water2^40",
            "`molecules`",
            App::Water {
                molecules: 1 << 40,
                steps: 1,
            },
        ),
    ] {
        let mut payload = cni_snap::read_value(&src).expect("checkpoint reads");
        let Some(Value::Object(meta)) = payload.as_object_mut().and_then(|p| p.get_mut("meta"))
        else {
            panic!("payload has a meta object");
        };
        meta.insert("app".into(), app.to_value());
        let path = dir.join(format!("{name}.cnisnap"));
        cni_snap::write_value(&path, &payload).expect("rewritten checkpoint writes");
        let err = read_snapshot(&path).expect_err(name);
        assert!(err.starts_with("error:"), "not a diagnostic: {err}");
        assert!(err.contains(needle), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume may change the fault plan (a fork) and the engine worker
/// count, nothing else.
#[test]
fn resume_with_refuses_any_other_config_change() {
    let (bytes, golden) = checkpoint();
    let dir = tmp_dir("resume-with");
    let snap = read_snapshot(&write(&dir, "ck.cnisnap", bytes)).expect("checkpoint reads");
    let mut reseeded = snap.config;
    reseeded.seed ^= 1;
    let mut costlier = snap.config;
    costlier.costs.per_word_cycles += 1;
    for cfg in [
        reseeded,
        costlier,
        snap.config.with_msg_cache_bytes(64 * 1024),
        snap.config.standard(),
    ] {
        let err = snap.resume_with(cfg).expect_err("a changed config resumes");
        assert!(err.contains("differs from the snapshot's"), "{err}");
    }
    let mut bad_plan = FaultPlan::none();
    bad_plan.drop_prob = 1.5;
    let err = snap
        .resume_with(snap.config.with_faults(bad_plan))
        .expect_err("an invalid fork plan resumes");
    assert!(err.contains("drop_prob"), "{err}");
    let parallel = snap
        .resume_with(snap.config.with_engine_workers(2))
        .expect("engine workers may change");
    assert_eq!(&json(&parallel), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Older builds stored the `--engine-workers` count in each checkpoint's
/// configuration. Such a checkpoint resumes to the uninterrupted run's
/// report, in the library and through `cni-run --resume`.
#[test]
fn a_checkpoint_that_stored_engine_workers_resumes() {
    let (bytes, golden) = checkpoint();
    let dir = tmp_dir("stored-workers");
    let plain = write(&dir, "plain.cnisnap", bytes);
    let stored = dir.join("workers.cnisnap");
    with_stored_config(&plain, &stored, |cfg| cfg.engine_workers = 2);
    let snap = read_snapshot(&stored).expect("checkpoint reads");
    assert_eq!(snap.config.engine_workers, 2);
    let resumed = snap.resume().expect("the checkpoint resumes");
    assert_eq!(&json(&resumed), golden);

    let resume = |path: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_cni-run"))
            .arg("--resume")
            .arg(path)
            .arg("--json")
            .output()
            .expect("cni-run runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert!(
        resume(&stored) == resume(&plain),
        "cni-run --resume diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any one damaged byte of a sealed checkpoint file is refused by
    /// `read_snapshot` or `resume` with a diagnostic; if a damaged file
    /// ever got through, its resume would still have to match the
    /// uninterrupted run.
    fn a_damaged_checkpoint_errors_or_resumes_to_the_golden_report(
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let (bytes, golden) = checkpoint();
        let mut bytes = bytes.clone();
        let i = at % bytes.len();
        bytes[i] ^= flip;
        let dir = tmp_dir(&format!("damaged-{i}-{flip}"));
        let path = write(&dir, "ck.cnisnap", &bytes);
        match read_snapshot(&path).and_then(|s| s.resume()) {
            Err(e) => prop_assert!(e.starts_with("error:"), "not a diagnostic: {e}"),
            Ok(report) => prop_assert_eq!(&json(&report), golden),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The extremes a mutated number token is set to: 0, 2^32 − 1, 2^63 − 1
/// and 2^64 − 1.
const EXTREMES: [u64; 4] = [0, u32::MAX as u64, i64::MAX as u64, u64::MAX];

/// Byte ranges of the number tokens in a JSON text.
fn number_tokens(json: &[u8]) -> Vec<Range<usize>> {
    let mut tokens = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < json.len() {
        let b = json[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while json
                .get(i)
                .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            {
                i += 1;
            }
            tokens.push(start..i);
            continue;
        }
        i += 1;
    }
    tokens
}

/// A probability anywhere in [0, 1), as its bit pattern: half the draws
/// are uniform over the value, half over the bit patterns, which reach
/// subnormals and long decimal expansions (every non-negative double
/// below 1.0 has a pattern below 1.0's).
fn probability() -> impl Strategy<Value = u64> {
    prop_oneof![any::<f64>().prop_map(f64::to_bits), 0..1f64.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A payload mutated inside a validly sealed container, by one flipped
    /// byte or by one number token set to an extreme, is read or refused
    /// with a diagnostic, never a panic. Resuming an accepted mutant is
    /// not part of the property: an extreme cycle cost or fabric latency
    /// still overflows simulated time there (ROADMAP item 4).
    fn a_resealed_mutant_payload_is_read_or_refused(
        flip_a_byte in any::<bool>(),
        at in 0usize..4096,
        flip in 1u8..=255,
        extreme in 0usize..EXTREMES.len(),
    ) {
        let mut json = cni_snap::unseal(&checkpoint().0)
            .expect("checkpoint unseals")
            .to_vec();
        if flip_a_byte {
            let i = at % json.len();
            json[i] ^= flip;
        } else {
            let tokens = number_tokens(&json);
            let token = tokens[at % tokens.len()].clone();
            json.splice(token, EXTREMES[extreme].to_string().into_bytes());
        }
        let dir = tmp_dir("mutant");
        let path = write(&dir, "ck.cnisnap", &cni_snap::seal(&json));
        if let Err(e) = read_snapshot(&path) {
            prop_assert!(e.starts_with("error:"), "not a diagnostic: {e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fault probabilities drawn anywhere in [0, 1) round-trip through
    /// `write_value` and `read_value` bit for bit.
    fn fault_probabilities_round_trip_bit_for_bit(
        drop in probability(),
        corrupt in probability(),
    ) {
        let dir = tmp_dir("probabilities");
        let src = write(&dir, "ck.cnisnap", &checkpoint().0);
        let dst = dir.join("edited.cnisnap");
        with_stored_config(&src, &dst, |c| {
            c.faults.drop_prob = f64::from_bits(drop);
            c.faults.corrupt_prob = f64::from_bits(corrupt);
        });
        let faults = read_snapshot(&dst).expect("checkpoint reads").config.faults;
        prop_assert_eq!(faults.drop_prob.to_bits(), drop);
        prop_assert_eq!(faults.corrupt_prob.to_bits(), corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The record is small whatever its event index: the `{app, config}`
/// metadata dominates, the engine's part is a few hundred bytes.
#[test]
fn every_checkpoint_file_is_at_most_4_kb() {
    let dir = tmp_dir("sizes");
    let cfg = Config::paper_default().with_procs(8);
    let run = run_app_checkpointed(cfg, APP, 40, &dir).expect("checkpointed run");
    assert!(run.snapshots.len() >= 10, "workload too small");
    for path in &run.snapshots {
        let len = std::fs::metadata(path).expect("checkpoint exists").len();
        assert!(len <= 4096, "{} is {len} bytes", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
